package peerview

import (
	"testing"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/simnet"
)

// Payload selectors for FuzzPeerviewReceive's mode byte.
const (
	fuzzSelf      = 1 << iota // the receiver's own advertisement
	fuzzSelfMoved             // the receiver's ID under another address
	fuzzKnown                 // a peer already in the view
	fuzzWrongType             // a peer advertisement, not a rendezvous one
	fuzzFromSelf              // the message claims the receiver as source
	fuzzMergeOn               // a merge listener is installed
	fuzzNoType                // the message carries no Type element
)

// FuzzPeerviewReceive feeds hostile peerview messages to receive: any
// Type, malformed or foreign advertisements, the receiver's own identity
// and oversized batches. receive must not panic, must never insert self,
// and must hold exactly one interning handle per view entry — so after
// Stop and Reset the store is back to empty, whatever early return the
// message took.
func FuzzPeerviewReceive(f *testing.F) {
	for _, typ := range []string{typeProbe, typeResponse, typeReferral, typeUpdate, typeMerge, typeMergeAck, "bogus"} {
		f.Add(typ, []byte("<jxta:RdvAdvertisement><RdvPeerID>urn:jxta:nil</RdvPeerID></jxta:RdvAdvertisement>"),
			[]byte("not xml"), byte(fuzzSelf|fuzzKnown|fuzzMergeOn), uint8(3))
		f.Add(typ, []byte{}, []byte("<jxta:PA><PID>urn:jxta:nil</PID></jxta:PA>"),
			byte(fuzzSelfMoved|fuzzWrongType|fuzzFromSelf), uint8(200))
	}
	f.Fuzz(func(t *testing.T, typ string, a, b []byte, mode byte, repeat uint8) {
		sched := simnet.NewScheduler(1)
		store := advstore.New()
		peers := newOverlay(t, sched, 2, Config{Interval: time.Hour, AdvStore: store})
		p, known := peers[0], peers[1]
		if mode&fuzzMergeOn != 0 {
			p.pv.SetMergeListener(func(ids.ID) {})
		}
		learn(p.pv, known.adv)

		m := message.New()
		if mode&fuzzNoType == 0 {
			m.AddString(ns, elemType, typ)
		}
		add := func(data []byte) { m.Add(ns, elemAdv, data) }
		if mode&fuzzSelf != 0 {
			add(p.pv.selfXML)
		}
		if mode&fuzzSelfMoved != 0 {
			moved := *p.adv
			moved.Address = "sim://elsewhere/0"
			data, _ := advertisement.EncodeXML(&moved)
			add(data)
		}
		if mode&fuzzKnown != 0 {
			add(known.pv.selfXML)
		}
		if mode&fuzzWrongType != 0 {
			data, _ := advertisement.EncodeXML(&advertisement.Peer{PeerID: known.id, Name: "p"})
			add(data)
		}
		for i := 0; i < int(repeat)%64+1; i++ {
			add(a)
			add(b)
		}
		src := known.id
		if mode&fuzzFromSelf != 0 {
			src = p.id
		}

		p.pv.receive(src, m)
		if p.pv.Contains(p.id) || p.pv.byID[p.id] != nil {
			t.Fatal("self inserted into its own view")
		}
		if store.Len() != p.pv.Size()+known.pv.Size() {
			t.Fatalf("store holds %d advertisements for %d view entries", store.Len(), p.pv.Size()+known.pv.Size())
		}
		p.pv.Stop()
		p.pv.Reset()
		if store.Len() != 0 {
			t.Fatalf("store holds %d advertisements after Stop and Reset, want 0", store.Len())
		}
	})
}
