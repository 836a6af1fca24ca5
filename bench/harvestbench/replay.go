package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"harvest/internal/blockledger"
	"harvest/internal/core"
	"harvest/internal/ledger"
	"harvest/internal/service"
	"harvest/internal/tenant"
	"harvest/internal/wire"
)

// replayer runs a request stream in-process, one request at a time, through
// two hand-assembled chains of the layers' public functions, with a span
// around every call:
//
//	request                       what a daemon does per request, without the socket
//	  wire.decode_req             (binary dialect)
//	  service.<op>                the real Service method — or, for the JSON
//	                              dialect, service.http.<op>: API.ServeHTTP
//	  wire.encode_resp            (binary dialect)
//	assembled.<op>                the same op rebuilt below the service layer
//	  core.select_indexed | core.place_replicas
//	  ledger.reserve | ledger.release | ledger.renew | blockledger.create
//
// The assembled chain runs on a ledger and a block ledger the bench owns, so
// a layer's cost is visible apart from the service code above it: the service
// layer's own share is service.<op> minus the assembled children.
type replayer struct {
	tr   *tracer
	svc  *service.Service
	api  *service.API
	snap *service.Snapshot
	rng  *rand.Rand

	servers []int64
	held    []uint64 // leases held on the service

	// The bench-owned twins.
	idx      *core.SelectIndex
	usage    map[core.ClassID]core.ClassUsage
	led      *ledger.Ledger
	alloc    core.AllocSource // led's live occupancy, boxed once
	twinHeld []uint64
	placer   *core.PlacementScheme
	blocks   *blockledger.Ledger

	// Reused codec values.
	frame     []byte
	out       []byte
	selResp   wire.SelectResp
	clsResp   wire.ClassesResp
	placeResp wire.PlaceResp
	tally     tally
}

// ledgerAlloc adapts a ledger to core.AllocSource, like the service's own
// overlay does.
type ledgerAlloc struct {
	led *ledger.Ledger
	gen uint64
}

func (a ledgerAlloc) AllocatedCoresOf(id core.ClassID) float64 {
	cores, _ := a.led.AllocatedCores(a.gen, id)
	return cores
}

func newReplayer(tr *tracer, svc *service.Service, servers []int64, seed int64) (*replayer, error) {
	snap, ok := svc.Snapshot(benchDC)
	if !ok {
		return nil, fmt.Errorf("service does not serve %s", benchDC)
	}
	usage := svc.UsageFor(snap)
	led := ledger.New(snap.Generation, len(snap.Clustering.Classes))
	return &replayer{
		tr: tr, svc: svc, api: service.NewAPI(svc), snap: snap,
		rng:     rand.New(rand.NewSource(seed)),
		servers: servers,
		idx:     snap.BuildSelectIndex(usage),
		usage:   usage,
		led:     led,
		alloc:   ledgerAlloc{led, snap.Generation},
		placer:  snap.Scheme().CloneForConcurrentUse(),
		blocks:  blockledger.New(snap.Generation),
	}, nil
}

func (r *replayer) jobOf(req request) core.JobRequest {
	var t core.JobType
	switch req.Job {
	case wire.JobShort:
		t = core.JobShort
	case wire.JobLong:
		t = core.JobLong
	case wire.JobFromLastRun:
		t = core.ClassifyLength(time.Duration(req.LastRun*float64(time.Second)), r.snap.Thresholds)
	default:
		t = core.JobMedium
	}
	return core.JobRequest{Type: t, MaxConcurrentCores: req.Cores}
}

var placeR3 = core.PlacementConstraints{Replication: replicationFactor, Writer: -1, EnforceEnvironment: true}

// one runs request number n of a stream through both chains.
func (r *replayer) one(n uint32, raw request, jsonDialect bool) {
	req, arg := resolve(raw, &r.held, r.servers)
	r.tally.attempted++
	var err error
	if jsonDialect {
		err = r.serveJSON(n, req, arg)
	} else {
		err = r.serveBinary(n, req, arg)
	}
	if err == nil {
		err = r.assembled(n, req)
	}
	if err != nil {
		r.tally.fail(req.Kind.String() + ": " + err.Error())
		return
	}
	r.tally.correct++
}

// serveBinary is the binary dialect's per-request work around the real
// service call: decode the request frame, execute, encode the response frame.
func (r *replayer) serveBinary(n uint32, req request, arg uint64) error {
	tr := r.tr
	s := tr.begin("wire.encode_req", -1, n)
	r.frame = appendBinaryRequest(r.frame[:0], uint64(n), benchDC, req, arg)
	tr.end(s)
	payload := r.frame[wire.HeaderSize:]

	root := tr.begin("request", -1, n)
	defer tr.end(root)
	var err error
	r.out = r.out[:0]
	switch req.Kind {
	case opSelect, opDrySelect:
		var m wire.SelectReq
		s = tr.begin("wire.decode_req", root, n)
		err = m.Decode(payload)
		tr.end(s)
		if err != nil {
			return err
		}
		job := r.jobOf(req)
		resp := &r.selResp
		*resp = wire.SelectResp{Job: uint8(job.Type), Classes: resp.Classes[:0]}
		if req.Kind == opDrySelect {
			s = tr.begin("service.select", root, n)
			sel, snap, serr := r.svc.Select(benchDC, job)
			tr.end(s)
			if serr != nil {
				return serr
			}
			resp.Generation, resp.Satisfiable = snap.Generation, !sel.Empty()
			for i, c := range sel.Classes {
				resp.Classes = append(resp.Classes, wire.SelectGrant{Class: uint32(c), Headroom: sel.Headrooms[i]})
			}
		} else {
			s = tr.begin("service.select_reserve", root, n)
			g, snap, serr := r.svc.SelectReserve(benchDC, job, 0)
			tr.end(s)
			if serr != nil {
				return serr
			}
			resp.Generation, resp.Lease, resp.Satisfiable = snap.Generation, g.Lease, g.Reserved()
			for i, c := range g.Selection.Classes {
				resp.Classes = append(resp.Classes, wire.SelectGrant{Class: uint32(c), Headroom: g.Selection.Headrooms[i], Granted: g.Granted[i]})
			}
			if g.Reserved() {
				r.held = append(r.held, g.Lease)
			}
		}
		s = tr.begin("wire.encode_resp", root, n)
		r.out = wire.AppendSelectResp(r.out, uint64(n), resp)
		tr.end(s)
		s = tr.begin("wire.decode_resp", -1, n)
		err = resp.Decode(r.out[wire.HeaderSize:])
		tr.end(s)
	case opRelease, opRenew:
		var m wire.ReleaseReq
		var rn wire.RenewReq
		s = tr.begin("wire.decode_req", root, n)
		if req.Kind == opRelease {
			err = m.Decode(payload)
		} else {
			err = rn.Decode(payload)
		}
		tr.end(s)
		if err != nil {
			return err
		}
		var lease ledger.Lease
		if req.Kind == opRelease {
			s = tr.begin("service.release", root, n)
			lease, err = r.svc.Release(benchDC, arg)
		} else {
			s = tr.begin("service.renew", root, n)
			lease, err = r.svc.Renew(benchDC, arg, 0)
		}
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("wire.encode_resp", root, n)
		if req.Kind == opRelease {
			rel := wire.ReleaseResp{Lease: lease.ID, TotalMillis: lease.TotalMillis()}
			for _, g := range lease.Grants {
				rel.Grants = append(rel.Grants, wire.ReleaseGrant{Class: uint32(g.Class), Millis: g.Millis})
			}
			r.out = wire.AppendReleaseResp(r.out, uint64(n), &rel)
		} else {
			r.out = wire.AppendRenewResp(r.out, uint64(n), &wire.RenewResp{Lease: lease.ID, TotalMillis: lease.TotalMillis()})
		}
		tr.end(s)
	case opClasses, opServer:
		s = tr.begin("wire.decode_req", root, n)
		if req.Kind == opClasses {
			var m wire.ClassesReq
			err = m.Decode(payload)
		} else {
			var m wire.ServerClassReq
			err = m.Decode(payload)
		}
		tr.end(s)
		if err != nil {
			return err
		}
		// No single Service method answers these; the handlers read the
		// snapshot, the live usage view and the ledger occupancy.
		s = tr.begin("service.classes", root, n)
		snap, _ := r.svc.Snapshot(benchDC)
		usage := r.svc.UsageFor(snap)
		_, alloc, _ := r.svc.LedgerOccupancy(benchDC)
		classes := snap.Clustering.Classes
		if req.Kind == opServer {
			cls, ok := snap.ClassOfServer(tenant.ServerID(arg))
			if !ok {
				tr.end(s)
				return fmt.Errorf("server %d has no class", arg)
			}
			classes = []*core.UtilizationClass{cls}
		}
		tr.end(s)
		s = tr.begin("wire.encode_resp", root, n)
		resp := &r.clsResp
		resp.Generation, resp.Classes = snap.Generation, resp.Classes[:0]
		for _, cls := range classes {
			rec := wire.ClassRec{ID: uint32(cls.ID), Pattern: uint8(cls.Pattern), NumTenants: uint32(len(cls.Tenants)),
				NumServers: uint32(cls.NumServers()), Avg: cls.AvgUtilization, Peak: cls.PeakUtilization,
				Current: usage[cls.ID].CurrentUtilization}
			if int(cls.ID) < len(alloc) {
				rec.AllocMillis = alloc[cls.ID]
			}
			resp.Classes = append(resp.Classes, rec)
		}
		r.out = wire.AppendClassesResp(r.out, uint64(n), resp)
		tr.end(s)
		s = tr.begin("wire.decode_resp", -1, n)
		err = resp.Decode(r.out[wire.HeaderSize:])
		tr.end(s)
	case opPlace, opPlaceBlock:
		var m wire.PlaceReq
		s = tr.begin("wire.decode_req", root, n)
		err = m.Decode(payload) // PlaceBlockReq shares the layout
		tr.end(s)
		if err != nil {
			return err
		}
		resp := &r.placeResp
		resp.Replicas = resp.Replicas[:0]
		if req.Kind == opPlace {
			s = tr.begin("service.place", root, n)
			replicas, snap, perr := r.svc.Place(benchDC, placeR3)
			tr.end(s)
			if perr != nil {
				return perr
			}
			resp.Generation = snap.Generation
			for _, sv := range replicas {
				resp.Replicas = append(resp.Replicas, int64(sv))
			}
		} else {
			s = tr.begin("service.create_block", root, n)
			bp, perr := r.svc.CreateBlock(benchDC, placeR3)
			tr.end(s)
			if perr != nil {
				return perr
			}
			resp.Generation = bp.Generation
			for _, sv := range bp.Replicas {
				resp.Replicas = append(resp.Replicas, int64(sv))
			}
		}
		if v := checkReplicas(resp.Replicas); v != "" {
			return fmt.Errorf("%s", v)
		}
		s = tr.begin("wire.encode_resp", root, n)
		r.out = wire.AppendPlaceResp(r.out, uint64(n), resp)
		tr.end(s)
		s = tr.begin("wire.decode_resp", -1, n)
		err = resp.Decode(r.out[wire.HeaderSize:])
		tr.end(s)
	}
	return err
}

// serveJSON is the JSON dialect's per-request work: the whole HTTP handler,
// with a ResponseRecorder in place of the socket.
func (r *replayer) serveJSON(n uint32, req request, arg uint64) error {
	raw := appendJSONRequest(nil, benchDC, req, arg)
	// Split the serialized request back into what http.NewRequest wants.
	head, body, _ := bytes.Cut(raw, []byte("\r\n\r\n"))
	line, _, _ := bytes.Cut(head, []byte("\r\n"))
	parts := bytes.SplitN(line, []byte(" "), 3)
	hreq := httptest.NewRequest(string(parts[0]), string(parts[1]), bytes.NewReader(body))
	rec := httptest.NewRecorder()

	root := r.tr.begin("request", -1, n)
	s := r.tr.begin("service.http."+req.Kind.String(), root, n)
	r.api.ServeHTTP(rec, hreq)
	r.tr.end(s)
	r.tr.end(root)

	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var m jsonReply
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return err
	}
	if req.Kind == opSelect && m.Lease != 0 {
		r.held = append(r.held, m.Lease)
	}
	return nil
}

// assembled rebuilds the op below the service layer, on the bench's own
// ledgers, from the same request.
func (r *replayer) assembled(n uint32, req request) error {
	tr := r.tr
	switch req.Kind {
	case opSelect, opDrySelect:
		root := tr.begin("assembled."+req.Kind.String(), -1, n)
		defer tr.end(root)
		job := r.jobOf(req)
		s := tr.begin("core.select_indexed", root, n)
		sel := r.snap.SelectIndexed(r.rng, job, r.idx, r.alloc)
		tr.end(s)
		if req.Kind == opDrySelect || sel.Empty() {
			return nil
		}
		// The same grant arithmetic as Service.SelectReserve.
		reqs := make([]ledger.Request, 0, len(sel.Classes))
		remaining := job.MaxConcurrentCores
		for i, id := range sel.Classes {
			want := math.Floor(math.Min(sel.Headrooms[i], remaining)*ledger.MillisPerCore) / ledger.MillisPerCore
			if want <= 0 {
				continue
			}
			reqs = append(reqs, ledger.Request{Class: id, Cores: want, Capacity: r.snap.CapacityCores(job.Type, id, r.usage[id])})
			remaining -= want
		}
		s = tr.begin("ledger.reserve", root, n)
		lease, err := r.led.ReserveMeta(r.snap.Generation, reqs, 2*time.Minute, time.Now(), ledger.Meta{})
		tr.end(s)
		if err != nil {
			return err
		}
		r.twinHeld = append(r.twinHeld, lease.ID)
	case opRelease, opRenew:
		if len(r.twinHeld) == 0 {
			return nil
		}
		root := tr.begin("assembled."+req.Kind.String(), -1, n)
		defer tr.end(root)
		i := int(req.Pick) % len(r.twinHeld)
		id := r.twinHeld[i]
		var err error
		if req.Kind == opRelease {
			r.twinHeld[i] = r.twinHeld[len(r.twinHeld)-1]
			r.twinHeld = r.twinHeld[:len(r.twinHeld)-1]
			s := tr.begin("ledger.release", root, n)
			_, err = r.led.Release(id)
			tr.end(s)
		} else {
			s := tr.begin("ledger.renew", root, n)
			_, err = r.led.Renew(id, 2*time.Minute, time.Now())
			tr.end(s)
		}
		return err
	case opPlace, opPlaceBlock:
		root := tr.begin("assembled."+req.Kind.String(), -1, n)
		defer tr.end(root)
		s := tr.begin("core.place_replicas", root, n)
		replicas, err := r.placer.PlaceReplicas(r.rng, placeR3)
		tr.end(s)
		if err != nil || req.Kind == opPlace {
			return err
		}
		s = tr.begin("blockledger.create", root, n)
		_, err = r.blocks.Create(r.snap.Generation, replicas, true)
		tr.end(s)
		return err
	}
	return nil
}

// run replays the first n requests of a stream.
func (r *replayer) run(st *stream, n int, jsonDialect bool) {
	for i := 0; i < n; i++ {
		r.one(uint32(i), st.next(), jsonDialect)
	}
}

// drain releases what the replay still holds on the service, so the service's
// books can be checked afterwards.
func (r *replayer) drain() error {
	for _, id := range r.held {
		if _, err := r.svc.Release(benchDC, id); err != nil {
			return err
		}
	}
	r.held = nil
	return nil
}
