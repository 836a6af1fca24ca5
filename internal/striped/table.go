package striped

// table is a shard's id → record index. It is laid out as a Go map is —
// segments of at most maxSegment slots under a directory indexed by the top
// bits of an id's hash, a segment seven eighths full doubling until it
// reaches that size and splitting in two after, so it grows at the counts a
// Go map grows at — but each segment is an open-addressing table with linear
// probing and backward-shift deletion, so removing a record leaves no
// tombstone. A shard that holds a steady number of records while they turn
// over — a lease released, another reserved under a fresh id — therefore
// never reallocates its index; it grows only when a segment holds more
// records than it ever has.
//
// A Go map does not give that: under the same turnover its groups fill with
// tombstones, and it doubles (or splits) a table to shed them, at times set by
// where the random ids hash — an 18 kB allocation in the middle of a steady
// stream of reserves and releases, a second in or not at all.
type table[V any] struct {
	// dir has 1<<depth entries; a segment of local depth d fills the
	// 1<<(depth-d) consecutive entries whose index starts with its d bits.
	dir   []*segment[V]
	depth uint8
	n     int
}

const (
	// minSegment and maxSegment bound a segment's slot count: 512 B to 16 KiB.
	minSegment = 32
	maxSegment = 1024
)

type segment[V any] struct {
	slots []slot[V] // empty, or a power of two long
	depth uint8     // how many top hash bits its records share
	n     int
}

// slot is one entry of a segment; a nil v marks it free, so any id, zero
// included, can be held.
type slot[V any] struct {
	id uint64
	v  *V
}

// hash spreads an id over 64 bits: the top bits pick the directory entry,
// the low bits the home slot, and each depends on every bit of the id, so the
// shard index an id carries in its low bits does not cluster a shard's ids.
// It is a bijection, so distinct ids never share a hash.
func hash(id uint64) uint64 {
	h := id * 0x9e3779b97f4a7c15 // Fibonacci hashing
	return h ^ h>>32
}

func (t *table[V]) len() int { return t.n }

// entry is h's directory index.
func (t *table[V]) entry(h uint64) int { return int(h >> (64 - t.depth)) } // a shift by 64 is 0

// segment returns the segment for hash h; nil before the first put.
func (t *table[V]) segment(h uint64) *segment[V] {
	if t.dir == nil {
		return nil
	}
	return t.dir[t.entry(h)]
}

// get returns the record held under id, nil if none is.
func (t *table[V]) get(id uint64) *V {
	h := hash(id)
	s := t.segment(h)
	if s == nil {
		return nil
	}
	if i := s.find(h, id); i >= 0 {
		return s.slots[i].v
	}
	return nil
}

// put holds v under id, which must not be held.
func (t *table[V]) put(id uint64, v *V) {
	h := hash(id)
	if t.dir == nil {
		t.dir = []*segment[V]{{}}
	}
	s := t.segment(h)
	for 8*(s.n+1) > 7*len(s.slots) {
		if len(s.slots) < maxSegment {
			s.resize(max(2*len(s.slots), minSegment))
			break
		}
		t.split(s, h)
		s = t.segment(h)
	}
	s.place(h, slot[V]{id, v})
	s.n++
	t.n++
}

// remove drops id and returns what it held, nil if it was not held.
func (t *table[V]) remove(id uint64) *V {
	h := hash(id)
	s := t.segment(h)
	if s == nil {
		return nil
	}
	i := s.find(h, id)
	if i < 0 {
		return nil
	}
	v := s.slots[i].v
	s.removeAt(i)
	t.n--
	return v
}

// split moves the records of s, the full segment hash h maps to, whose next
// hash bit is 1 to a new segment, doubling the directory first if s is as
// deep as it.
func (t *table[V]) split(s *segment[V], h uint64) {
	if s.depth == t.depth {
		dir := make([]*segment[V], 2*len(t.dir))
		for i, d := range t.dir {
			dir[2*i], dir[2*i+1] = d, d
		}
		t.dir, t.depth = dir, t.depth+1
	}
	s.depth++
	hi := &segment[V]{slots: make([]slot[V], len(s.slots)), depth: s.depth}
	bit := uint64(1) << (64 - s.depth)
	// A removal may shift the next record of the run into slot i: look at i
	// again. A record it shifts from the array's start to its end was looked
	// at already and stays.
	for i := 0; i < len(s.slots); {
		sl := s.slots[i]
		if sl.v == nil || hash(sl.id)&bit == 0 {
			i++
			continue
		}
		s.removeAt(i)
		hi.place(hash(sl.id), sl)
		hi.n++
	}
	// s filled a run of 2*span entries; hi takes its upper half.
	span := 1 << (t.depth - s.depth)
	first := t.entry(h) &^ (2*span - 1)
	for i := first + span; i < first+2*span; i++ {
		t.dir[i] = hi
	}
}

// home is the first slot an id with hash h probes.
func (s *segment[V]) home(h uint64) int { return int(h) & (len(s.slots) - 1) }

// find returns the slot holding id, whose hash is h; -1 if none does.
func (s *segment[V]) find(h, id uint64) int {
	if s.n == 0 {
		return -1
	}
	mask := len(s.slots) - 1
	for i := s.home(h); s.slots[i].v != nil; i = (i + 1) & mask {
		if s.slots[i].id == id {
			return i
		}
	}
	return -1
}

// place puts sl in the first free slot from its home on.
func (s *segment[V]) place(h uint64, sl slot[V]) {
	mask := len(s.slots) - 1
	i := s.home(h)
	for s.slots[i].v != nil {
		i = (i + 1) & mask
	}
	s.slots[i] = sl
}

func (s *segment[V]) resize(n int) {
	old := s.slots
	s.slots = make([]slot[V], n)
	for _, sl := range old {
		if sl.v != nil {
			s.place(hash(sl.id), sl)
		}
	}
}

// removeAt frees slot i and closes up the run after it, so every record stays
// reachable from its home without a tombstone: each later record of the run
// moves back into the hole when the hole lies on its probe path, from its
// home to where it is.
func (s *segment[V]) removeAt(i int) {
	mask := len(s.slots) - 1
	for j := i; ; {
		j = (j + 1) & mask
		if s.slots[j].v == nil {
			break
		}
		if (j-s.home(hash(s.slots[j].id)))&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = slot[V]{}
	s.n--
}

// all ranges over the held records; the loop body may remove the record it
// was handed. Each segment is walked once round from a free slot (one exists:
// a segment is at most seven eighths full). A removal closes up only the run
// it was in, moving records that lie ahead of the walk back by a slot, so the
// walk looks at the slot again rather than move past it; nothing moves into a
// slot the walk has passed.
func (t *table[V]) all(yield func(uint64, *V) bool) {
	for d := 0; d < len(t.dir); {
		s := t.dir[d]
		d += 1 << (t.depth - s.depth)
		if s.n == 0 {
			continue
		}
		mask := len(s.slots) - 1
		free := 0
		for s.slots[free].v != nil {
			free++
		}
		for step := 1; step <= mask; {
			i := (free + step) & mask
			sl := s.slots[i]
			if sl.v == nil {
				step++
				continue
			}
			if !yield(sl.id, sl.v) {
				return
			}
			if s.slots[i] == sl {
				step++
			}
		}
	}
}
