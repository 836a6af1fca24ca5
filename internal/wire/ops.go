package wire

// Access says whether a request only reads a shard's state: the router may
// spread reads across a primary's followers and must pin writes to the primary.
type Access uint8

const (
	Write Access = iota // moves ledger or block-ledger state
	Read                // pure computation against the snapshot and the books
	// ReadIfDryRun is select: a read when the request asks for a dry run
	// (SelectFlagDryRun, the JSON body's dry_run), a write when it reserves.
	ReadIfDryRun
)

// OpInfo is one data-plane operation's routing facts, the single definition
// the shard's two dialects and the router's two fronts all look up.
type OpInfo struct {
	Op   Op
	Name string // metrics and trace label; the response opcode's is Name+"_resp"
	// Method and Route are the JSON dialect's form, Route the net/http pattern
	// under /v1/{dc}/; Endpoint is the JSON API's /metrics label for it.
	Method, Route, Endpoint string
	Access                  Access
	// LeaseKeyed marks requests whose payload carries a lease id right after
	// the datacenter (PeekLease): the router keeps one lease's requests in the
	// order they were issued.
	LeaseKeyed bool
	// Bearer marks operations behind the shard's ingest bearer token. The
	// binary dialect has no credential field, so it refuses them outright when
	// a token is configured.
	Bearer bool
}

// Ops lists every request opcode, one row each. Read-only after init.
var Ops = [...]OpInfo{
	{Op: OpSelect, Name: "select", Method: "POST", Route: "select", Endpoint: "select", Access: ReadIfDryRun},
	{Op: OpRelease, Name: "release", Method: "POST", Route: "release", Endpoint: "release", LeaseKeyed: true},
	{Op: OpPlace, Name: "place", Method: "POST", Route: "place", Endpoint: "place", Access: Read},
	{Op: OpClasses, Name: "classes", Method: "GET", Route: "classes", Endpoint: "classes", Access: Read},
	{Op: OpServerClass, Name: "server_class", Method: "GET", Route: "servers/{id}/class", Endpoint: "server_class", Access: Read},
	{Op: OpRenew, Name: "renew", Method: "POST", Route: "renew", Endpoint: "renew", LeaseKeyed: true},
	{Op: OpPlaceBlock, Name: "place_block", Method: "POST", Route: "blocks", Endpoint: "blocks"},
	{Op: OpReimage, Name: "reimage", Method: "POST", Route: "reimage", Endpoint: "reimage", Bearer: true},
}

// OpIndex returns the opcode's row in Ops — also its slot in per-op metric
// arrays sized len(Ops) — or -1 when it is not a request opcode.
func OpIndex(op Op) int {
	for i := range Ops {
		if Ops[i].Op == op {
			return i
		}
	}
	return -1
}

// OpForRoute finds the operation a JSON request addresses by its method and
// its path under /v1/{dc}/; nil for everything else the JSON API serves
// (telemetry, leases). Routes are matched literally: the one with a path
// parameter is a GET, which the router classifies by method alone.
func OpForRoute(method, route string) *OpInfo {
	for i := range Ops {
		if Ops[i].Method == method && Ops[i].Route == route {
			return &Ops[i]
		}
	}
	return nil
}
