// Corpus for purity: Identity() methods, memoKey constructors and
// resultcache.Key constructors (and everything they reach through
// module-local calls) must be pure — no non-local writes, no map
// iteration, no mutable-global reads, no address-dependent formatting.
package purecorpus

import (
	"fmt"

	"asmp/internal/resultcache"
)

var calls int

var seq int

type good struct{ name string }

func (g good) Identity() string { return "good|" + g.name } // ok: pure function of the receiver

type bad struct{ n int }

func (b *bad) Identity() string {
	b.n++ // want purity "identity function writes a field through pointer b"
	return describe(b.n)
}

// describe is only impure because a root reaches it: the write is
// reported through the call chain.
func describe(n int) string {
	calls++ // want purity "identity function writes package-level variable calls"
	return fmt.Sprint(n)
}

type mapped struct{ tags map[string]string }

func (m mapped) Identity() string {
	s := ""
	for k := range m.tags { // want purity "identity function iterates a map"
		s += k
	}
	return s
}

type config struct{ size int }

type ptrfmt struct{ cfg *config }

func (p ptrfmt) Identity() string {
	return fmt.Sprintf("%+v", p) // want purity "process-specific addresses"
}

type memoKey struct{ id string }

func memoKeyFor(id string) memoKey {
	seq++ // want purity "identity function writes package-level variable seq"
	return memoKey{id: id}
}

var published int

// cacheKeyFor derives the cross-process cache address: a root by its
// result type alone, whatever its name.
func cacheKeyFor(k memoKey) resultcache.Key {
	published++ // want purity "identity function writes package-level variable published"
	return resultcache.KeyOf("cell|" + k.id)
}
