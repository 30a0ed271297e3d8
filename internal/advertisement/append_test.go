package advertisement

import (
	"bytes"
	"testing"
	"unicode/utf8"

	"jxta/internal/ids"
)

// sampleAdvertisements covers every advertisement type, including the
// optional and repeated fields the encoders must skip or loop over.
func sampleAdvertisements() []Advertisement {
	peer := ids.FromName(ids.KindPeer, "p")
	return []Advertisement{
		&Rdv{PeerID: peer, GroupID: ids.FromName(ids.KindGroup, "g"),
			Name: "rdv-rennes-1", Address: "sim://rennes/1"},
		&Rdv{PeerID: peer}, // empty Name and Addr still encode
		&Rdv{PeerID: ids.Nil, GroupID: ids.New(ids.Kind(99), [16]byte{1})},
		&Peer{PeerID: peer, Name: "Test"},
		&Peer{PeerID: peer, Name: `a"b'c&d<e>f`, Desc: "tab\there\r\nline",
			Addresses: []string{"tcp://1.2.3.4:9701", "", "sim://x/\x01\xff"}},
		&Route{DestID: peer, Hops: []ids.ID{ids.FromName(ids.KindPeer, "h")}},
		&Pipe{PipeID: ids.FromName(ids.KindPipe, "pp"), Name: "chat", Kind: "JxtaUnicast"},
		&Module{ModuleID: ids.FromName(ids.KindModule, "m"), Name: "svc", Desc: "d"},
		&Resource{ResID: ids.FromName(ids.KindAdv, "r"), Name: "cpu",
			Attrs: []IndexField{{Attr: "ram\n", Value: "512<"}}},
	}
}

func TestAppendXMLMatchesDocument(t *testing.T) {
	for _, a := range sampleAdvertisements() {
		want, err := a.Document().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("prefix")
		got, err := AppendXML(prefix, a)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%T: AppendXML = %q, want prefix + %q", a, got, want)
		}
		enc, err := EncodeXML(a)
		if err != nil || !bytes.Equal(enc, want) {
			t.Errorf("%T: EncodeXML = %q, %v; want %q", a, enc, err, want)
		}
	}
}

func TestEncodeRdvAllocs(t *testing.T) {
	adv := &Rdv{PeerID: ids.FromName(ids.KindPeer, "p"),
		GroupID: ids.FromName(ids.KindGroup, "g"), Name: "rdv-17", Address: "sim://rennes/17"}
	if n := testing.AllocsPerRun(100, func() { _, _ = EncodeXML(adv) }); n != 1 {
		t.Fatalf("EncodeXML(*Rdv) allocates %v times, want 1", n)
	}
}

// xmlClean reports whether s survives the codec unchanged: valid UTF-8
// made of XML characters only. Anything else encodes as U+FFFD.
func xmlClean(s string) bool {
	if !utf8.ValidString(s) {
		return false
	}
	for _, r := range s {
		if r != '\t' && r != '\n' && r != '\r' && (r < 0x20 ||
			r >= 0xD800 && r < 0xE000 || r == 0xFFFE || r == 0xFFFF) {
			return false
		}
	}
	return true
}

// FuzzAppendXML checks the DOM-free encoders against the DOM encoder on
// arbitrary text fields, and that their output decodes back: to the same
// fields when the text is made of XML characters, and otherwise to an
// advertisement that re-encodes to the same bytes.
func FuzzAppendXML(f *testing.F) {
	f.Add("rdv-1", "", "sim://rennes/1", "tcp://1.2.3.4:9701")
	f.Add(`"'&<>`, "\t\r\n", "a\r\nb", "\x00\x01\x1f")
	f.Add("\xff\xfe", "�", "\xed\xa0\x80", "\U0010FFFF")
	f.Add(" ", "  spaced  ", "]]>", "<![CDATA[x]]>")
	f.Fuzz(func(t *testing.T, name, desc, addr, addr2 string) {
		id := ids.FromName(ids.KindPeer, name)
		advs := []Advertisement{
			&Rdv{PeerID: id, GroupID: ids.FromName(ids.KindGroup, desc), Name: name, Address: addr},
			&Peer{PeerID: id, Name: name, Desc: desc, Addresses: []string{addr, addr2}},
		}
		for _, a := range advs {
			want, err := a.Document().Marshal()
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendXML(nil, a)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%T: AppendXML = %q, %v; Document().Marshal() = %q", a, got, err, want)
			}
			back, err := DecodeXML(got)
			if err != nil {
				t.Fatalf("%T: decoding %q: %v", a, got, err)
			}
			again, _ := AppendXML(nil, back)
			if !bytes.Equal(again, got) {
				t.Fatalf("%T: re-encoding the decode gives %q, want %q", a, again, got)
			}
		}
		for _, s := range []string{name, desc, addr, addr2} {
			if !xmlClean(s) {
				return
			}
		}
		r, err := DecodeXML(mustAppend(t, advs[0]))
		if rb, ok := r.(*Rdv); err != nil || !ok || *rb != *advs[0].(*Rdv) {
			t.Fatalf("Rdv round trip = %+v, %v; want %+v", r, err, advs[0])
		}
		p, err := DecodeXML(mustAppend(t, advs[1]))
		pb, ok := p.(*Peer)
		if err != nil || !ok || pb.PeerID != id || pb.Name != name || pb.Desc != desc ||
			len(pb.Addresses) != 2 || pb.Addresses[0] != addr || pb.Addresses[1] != addr2 {
			t.Fatalf("Peer round trip = %+v, %v; want %+v", p, err, advs[1])
		}
	})
}

func mustAppend(t *testing.T, a Advertisement) []byte {
	t.Helper()
	b, err := AppendXML(nil, a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func BenchmarkEncodeRdv(b *testing.B) {
	adv := &Rdv{PeerID: ids.FromName(ids.KindPeer, "p"),
		GroupID: ids.FromName(ids.KindGroup, "g"), Name: "r", Address: "sim://x/1"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeXML(adv); err != nil {
			b.Fatal(err)
		}
	}
}
