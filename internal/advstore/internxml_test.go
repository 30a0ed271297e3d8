package advstore

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"jxta/internal/advertisement"
	"jxta/internal/ids"
)

func rdvAdv(name string) *advertisement.Rdv {
	return &advertisement.Rdv{
		PeerID:  ids.FromName(ids.KindPeer, name),
		GroupID: ids.FromName(ids.KindGroup, "NetPeerGroup"),
		Name:    name,
		Address: "sim://rennes/" + name,
	}
}

func mustEncode(t testing.TB, a advertisement.Advertisement) []byte {
	t.Helper()
	data, err := advertisement.EncodeXML(a)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInternXMLHitReturnsHeldInstance(t *testing.T) {
	s := New()
	held := rdvAdv("rdv-1")
	h := s.Intern(held)
	got, err := s.InternXML(mustEncode(t, rdvAdv("rdv-1")))
	if err != nil {
		t.Fatal(err)
	}
	if got != h || got.Adv() != advertisement.Advertisement(held) {
		t.Fatal("wire bytes of a held advertisement did not return its handle")
	}
	if hits, misses := s.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1, 1", hits, misses)
	}
	got.Release()
	h.Release()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after matching releases, want 0", s.Len())
	}
}

func TestInternXMLMissAdoptsDecode(t *testing.T) {
	s := New()
	want := rdvAdv("rdv-2")
	h, err := s.InternXML(mustEncode(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := h.Adv().(*advertisement.Rdv); !ok || *got != *want {
		t.Fatalf("adopted %+v, want %+v", h.Adv(), want)
	}
	if h2 := s.Intern(rdvAdv("rdv-2")); h2 != h {
		t.Fatal("Intern of an equal advertisement missed the InternXML entry")
	} else {
		h2.Release()
	}
	h.Release()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after matching releases, want 0", s.Len())
	}
}

// TestInternXMLNonCanonicalSpellings feeds spellings of one advertisement
// that decode equal but are not its canonical bytes: they miss the byte
// lookup and must still land on the held handle through the decode path.
func TestInternXMLNonCanonicalSpellings(t *testing.T) {
	adv := rdvAdv("a<b")
	adv.Address = "sim://rennes/1"
	canon := string(mustEncode(t, adv))
	pid, gid := adv.PeerID.String(), adv.GroupID.String()
	for _, tc := range []struct{ name, data string }{
		{"canonical", canon},
		{"whitespace between elements", "<jxta:RdvAdvertisement>\n  <RdvPeerID>" + pid +
			"</RdvPeerID>\n  <RdvGroupId>" + gid + "</RdvGroupId>\n  <Name>a&lt;b</Name>\n  <Addr>" +
			adv.Address + "</Addr>\n</jxta:RdvAdvertisement>\n"},
		{"decimal character reference", strings.Replace(canon, "&lt;", "&#60;", 1)},
		{"hex character reference", strings.Replace(canon, "&lt;", "&#x3C;", 1)},
		{"CDATA section", strings.Replace(canon, "a&lt;b", "<![CDATA[a<b]]>", 1)},
		{"prolog and comment", `<?xml version="1.0"?><!-- r -->` + canon},
		{"fields reordered", "<jxta:RdvAdvertisement><Addr>" + adv.Address + "</Addr><Name>a&lt;b</Name>" +
			"<RdvGroupId>" + gid + "</RdvGroupId><RdvPeerID>" + pid + "</RdvPeerID></jxta:RdvAdvertisement>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			held := s.Intern(adv)
			got, err := s.InternXML([]byte(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			if got != held {
				t.Fatalf("%q resolved to a different handle than the held advertisement", tc.data)
			}
			got.Release()
			held.Release()
			if s.Len() != 0 {
				t.Fatalf("Len = %d after matching releases, want 0", s.Len())
			}
		})
	}
}

func TestInternXMLErrorsLikeDecodeXML(t *testing.T) {
	for _, data := range []string{
		"",
		"<jxta:RdvAdvertisement>",
		"<unknown><Name>x</Name></unknown>",
		"<jxta:RdvAdvertisement><Name>no ids</Name></jxta:RdvAdvertisement>",
		"<jxta:PA><PID>urn:jxta:uuid-zz</PID></jxta:PA>",
	} {
		s := New()
		_, derr := advertisement.DecodeXML([]byte(data))
		h, err := s.InternXML([]byte(data))
		if derr == nil || err == nil || h != nil {
			t.Errorf("%q: InternXML = %v, %v; DecodeXML err = %v; want both to fail", data, h, err, derr)
		}
		if s.Len() != 0 {
			t.Errorf("%q: a failed intern left %d entries", data, s.Len())
		}
	}
}

func TestInternAllocs(t *testing.T) {
	s := New()
	adv := rdvAdv("rdv-3")
	data := mustEncode(t, adv)
	held := s.Intern(adv)
	defer held.Release()
	if n := testing.AllocsPerRun(100, func() { s.Intern(adv).Release() }); n != 0 {
		t.Errorf("Intern of a held Rdv allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		h, _ := s.InternXML(data)
		h.Release()
	}); n != 0 {
		t.Errorf("InternXML hit allocates %v times, want 0", n)
	}
}

func TestConcurrentInternXMLRelease(t *testing.T) {
	// Shard goroutines resolve the same wire bytes concurrently, mixing
	// byte hits, decode misses and releases that empty the table; run
	// under -race this is the byte path's thread-safety proof.
	s := New()
	var wire [5][]byte
	for i := range wire {
		wire[i] = mustEncode(t, rdvAdv(fmt.Sprintf("rdv-%d", i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h, err := s.InternXML(wire[i%5])
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("rdv-%d", i%5); h.Adv().(*advertisement.Rdv).Name != want {
					t.Errorf("handle for %q holds %q", want, h.Adv().(*advertisement.Rdv).Name)
					return
				}
				if i%3 == 0 {
					h.Retain()
					h.Release()
				}
				h.Release()
			}
		}()
	}
	wg.Wait()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after all releases, want 0", s.Len())
	}
}

// FuzzInternXML proves the byte-keyed lookup equivalent to decoding: for
// any input, InternXML errors exactly when DecodeXML does, and otherwise
// holds an advertisement whose canonical encoding is that of the decode.
// Every spelling of it — the input, its canonical bytes, an Intern of the
// decode — resolves to one handle, and matching releases empty the table.
func FuzzInternXML(f *testing.F) {
	for _, a := range []advertisement.Advertisement{
		rdvAdv("rdv-1"), rdvAdv(`"'&<>`),
		&advertisement.Peer{PeerID: ids.FromName(ids.KindPeer, "p"), Name: "Test",
			Addresses: []string{"tcp://1.2.3.4:9701"}},
		resAdv("cpu"),
	} {
		data, _ := advertisement.EncodeXML(a)
		f.Add(data)
		f.Add(bytes.ReplaceAll(data, []byte("><"), []byte(">\n <")))
	}
	f.Add([]byte("<jxta:RdvAdvertisement><Name>a&#60;b</Name></jxta:RdvAdvertisement>"))
	f.Add([]byte("<jxta:RdvAdvertisement>"))
	f.Add([]byte("not xml"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		dec, derr := advertisement.DecodeXML(data)
		h, err := s.InternXML(data)
		if (err != nil) != (derr != nil) {
			t.Fatalf("InternXML err = %v, DecodeXML err = %v", err, derr)
		}
		if err != nil {
			if s.Len() != 0 {
				t.Fatalf("a failed intern left %d entries", s.Len())
			}
			return
		}
		canon, err := advertisement.EncodeXML(dec)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := advertisement.EncodeXML(h.Adv()); !bytes.Equal(got, canon) {
			t.Fatalf("held advertisement encodes to %q, want %q", got, canon)
		}
		again, err := s.InternXML(data)
		if err != nil || again != h {
			t.Fatalf("second InternXML of the same bytes = %p, %v; want %p", again, err, h)
		}
		viaCanon, err := s.InternXML(canon)
		if err != nil || viaCanon != h {
			t.Fatalf("InternXML of the canonical bytes = %p, %v; want %p", viaCanon, err, h)
		}
		if viaAdv := s.Intern(dec); viaAdv != h {
			t.Fatal("Intern of the decode missed the InternXML entry")
		}
		for i := 0; i < 4; i++ {
			h.Release()
		}
		if s.Len() != 0 {
			t.Fatalf("Len = %d after matching releases, want 0", s.Len())
		}
	})
}

func BenchmarkInternXMLHit(b *testing.B) {
	s := New()
	adv := rdvAdv("rdv-1")
	data := mustEncode(b, adv)
	held := s.Intern(adv)
	defer held.Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h, err := s.InternXML(data)
		if err != nil {
			b.Fatal(err)
		}
		h.Release()
	}
}
