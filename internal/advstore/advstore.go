// Package advstore interns advertisements by their canonical encoded
// form: every holder of an equal advertisement — the same rendezvous
// advertisement cached in a hundred peerviews, a popular resource
// advertisement cached at every searcher — shares one decoded instance
// instead of keeping a private copy. At 100k-peer populations the
// duplicated decodes dominate cache memory; interning collapses them to
// one per distinct document.
//
// The store is refcounted: Intern returns a handle, holders Release it
// when they evict, and the table forgets an advertisement when its last
// handle is released. Shared advertisements are read-only by contract —
// a holder that needs to change one takes a MutableCopy (copy-on-write
// at the mutation boundary) and re-interns the result if it wants the
// copy shared again.
//
// The key is a digest of the canonical encoding. advertisement.AppendXML
// writes the encoding into a stack buffer that is hashed and dropped;
// rendezvous and peer advertisements build no DOM on the way. Receivers
// that hold the wire bytes call InternXML, which looks those bytes up
// directly: a received advertisement the table already holds costs a
// hash, not a decode.
package advstore

import (
	"hash/fnv"
	"sync"

	"jxta/internal/advertisement"
)

// key identifies a canonical encoding: a 128-bit FNV-1a digest plus the
// encoded length. The encoding itself is not retained — holding it would
// cost more than the interning saves on unique advertisements — so two
// distinct documents colliding in both digest and length would alias;
// with a 128-bit digest that is beyond birthday reach for any plausible
// population.
type key struct {
	hash [16]byte
	size int
}

// Shared is one interned advertisement: a refcounted handle on the
// canonical decoded instance. The instance is shared with every other
// holder and must not be mutated — use MutableCopy at mutation
// boundaries.
type Shared struct {
	store *Store // nil for private (unencodable) handles
	key   key
	adv   advertisement.Advertisement
	refs  int64 // guarded by store.mu
}

// Store is one interning table. The zero value is not usable; use New.
// Safe for concurrent use: sharded simulations intern from parallel
// shard goroutines.
type Store struct {
	mu     sync.Mutex
	byKey  map[key]*Shared
	hits   uint64
	misses uint64
}

// New builds an empty store.
func New() *Store { return &Store{byKey: make(map[key]*Shared)} }

// defaultStore is the process-wide table behind Default.
var defaultStore = New()

// Default returns the process-wide store. Caches and peerviews intern
// against it so equal advertisements dedupe across every simulated peer
// in the process.
func Default() *Store { return defaultStore }

// keyBufLen sizes the stack buffer keyOf encodes into: enough for any
// rendezvous or peer advertisement with ordinary names and addresses.
// Longer encodings spill to the heap and hash the same.
const keyBufLen = 512

// keyOf returns the key of adv's canonical encoding. The encoding is
// written into a stack buffer and only hashed; nothing is retained.
func keyOf(adv advertisement.Advertisement) (key, error) {
	var buf [keyBufLen]byte
	enc, err := advertisement.AppendXML(buf[:0], adv)
	if err != nil {
		return key{}, err
	}
	return keyOfBytes(enc), nil
}

// keyOfBytes returns the key of an encoding.
func keyOfBytes(enc []byte) key {
	h := fnv.New128a()
	h.Write(enc)
	var k key
	h.Sum(k.hash[:0])
	k.size = len(enc)
	return k
}

// Intern returns a handle on the canonical instance equal to adv,
// adopting adv itself as the canonical instance when none exists yet.
// The caller owns one reference and must Release it on eviction. An
// advertisement that fails to encode gets a private (untabled) handle,
// so the API never errors on the caller.
func (s *Store) Intern(adv advertisement.Advertisement) *Shared {
	k, err := keyOf(adv)
	if err != nil {
		return &Shared{adv: adv, refs: 1}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh, ok := s.byKey[k]; ok {
		sh.refs++
		s.hits++
		return sh
	}
	sh := &Shared{store: s, key: k, adv: adv, refs: 1}
	s.byKey[k] = sh
	s.misses++
	return sh
}

// InternXML returns a handle on the canonical instance encoded by data,
// the wire form of a received advertisement. Table keys are digests of
// canonical encodings, so a hit means data *is* the canonical encoding of
// the held instance: that instance is returned without decoding. On a
// miss data is decoded and interned under its canonical key, which keeps
// non-canonical spellings of a held advertisement (whitespace between
// elements, other entity forms) resolving to the same handle. It errors
// exactly when advertisement.DecodeXML does; the caller owns one
// reference otherwise.
func (s *Store) InternXML(data []byte) (*Shared, error) {
	k := keyOfBytes(data)
	s.mu.Lock()
	if sh, ok := s.byKey[k]; ok {
		sh.refs++
		s.hits++
		s.mu.Unlock()
		return sh, nil
	}
	s.mu.Unlock()
	adv, err := advertisement.DecodeXML(data)
	if err != nil {
		return nil, err
	}
	return s.Intern(adv), nil
}

// Adv returns the canonical instance. Read-only by contract: it is
// shared with every other holder of an equal advertisement.
func (sh *Shared) Adv() advertisement.Advertisement { return sh.adv }

// Retain adds a reference (a second holder keeping the same handle) and
// returns the handle for chaining.
func (sh *Shared) Retain() *Shared {
	if sh.store != nil {
		sh.store.mu.Lock()
		sh.refs++
		sh.store.mu.Unlock()
	}
	return sh
}

// Release drops one reference; the table forgets the advertisement when
// the last reference goes. Releasing more than retained panics — that is
// always a bookkeeping bug.
func (sh *Shared) Release() {
	if sh.store == nil {
		return
	}
	s := sh.store
	s.mu.Lock()
	sh.refs--
	freed := sh.refs < 0
	if sh.refs == 0 {
		delete(s.byKey, sh.key)
	}
	s.mu.Unlock()
	if freed {
		panic("advstore: Release of an already-freed handle")
	}
}

// MutableCopy returns a private deep copy of the advertisement — the
// copy-on-write boundary. The copy is made by a document round trip, so
// it shares no structure with the canonical instance.
func (sh *Shared) MutableCopy() (advertisement.Advertisement, error) {
	return advertisement.Decode(sh.adv.Document())
}

// Len reports the number of distinct interned advertisements.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byKey)
}

// Stats reports interning effectiveness: hits returned an existing
// canonical instance, misses adopted a new one.
func (s *Store) Stats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}
