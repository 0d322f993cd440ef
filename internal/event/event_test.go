package event

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/calendar"
)

func TestSortAndValidate(t *testing.T) {
	s := Sequence{{"b", 30}, {"a", 10}, {"c", 20}}
	s.Sort()
	if s[0].Time != 10 || s[1].Time != 20 || s[2].Time != 30 {
		t.Fatalf("sort failed: %v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid sequence rejected: %v", err)
	}
	bad := Sequence{{"a", 5}, {"b", 3}}
	if bad.Validate() == nil {
		t.Fatal("unsorted sequence accepted")
	}
	if (Sequence{{"a", 0}}).Validate() == nil {
		t.Fatal("timestamp 0 accepted")
	}
	if (Sequence{{"", 5}}).Validate() == nil {
		t.Fatal("empty type accepted")
	}
}

func TestSortStable(t *testing.T) {
	s := Sequence{{"first", 10}, {"second", 10}, {"third", 10}}
	s.Sort()
	if s[0].Type != "first" || s[1].Type != "second" || s[2].Type != "third" {
		t.Fatalf("sort not stable: %v", s)
	}
}

func TestTypesAndOccurrences(t *testing.T) {
	s := Sequence{{"a", 1}, {"b", 2}, {"a", 3}, {"c", 4}}
	types := s.Types()
	if len(types) != 3 || types[0] != "a" || types[1] != "b" || types[2] != "c" {
		t.Fatalf("Types = %v", types)
	}
	occ := s.Occurrences("a")
	if len(occ) != 2 || occ[0] != 1 || occ[1] != 3 {
		t.Fatalf("Occurrences(a) = %v", occ)
	}
	if s.CountType("a") != 2 || s.CountType("zz") != 0 {
		t.Fatal("CountType wrong")
	}
}

func TestBetweenAndFrom(t *testing.T) {
	s := Sequence{{"a", 10}, {"b", 20}, {"c", 30}, {"d", 40}}
	got := s.Between(15, 35)
	if len(got) != 2 || got[0].Type != "b" || got[1].Type != "c" {
		t.Fatalf("Between(15,35) = %v", got)
	}
	if len(s.Between(100, 200)) != 0 {
		t.Fatal("empty window should be empty")
	}
	if len(s.Between(20, 20)) != 1 {
		t.Fatal("point window should contain the event at that time")
	}
	if got := s.From(30); len(got) != 2 || got[0].Type != "c" {
		t.Fatalf("From(30) = %v", got)
	}
}

func TestSpanFilterMerge(t *testing.T) {
	s := Sequence{{"a", 5}, {"b", 9}}
	f, l := s.Span()
	if f != 5 || l != 9 {
		t.Fatalf("Span = %d,%d", f, l)
	}
	if f, l = (Sequence{}).Span(); f != 0 || l != 0 {
		t.Fatal("empty span should be 0,0")
	}
	odd := s.Filter(func(e Event) bool { return e.Time%2 == 1 })
	if len(odd) != 2 {
		t.Fatalf("Filter = %v", odd)
	}
	m := Merge(Sequence{{"a", 1}, {"c", 5}}, Sequence{{"b", 3}})
	if len(m) != 3 || m[1].Type != "b" {
		t.Fatalf("Merge = %v", m)
	}
	if m.Validate() != nil {
		t.Fatal("merged sequence invalid")
	}
}

func TestMergeProperty(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		var a, b Sequence
		for _, x := range xs {
			a = append(a, Event{"a", int64(x) + 1})
		}
		for _, y := range ys {
			b = append(b, Event{"b", int64(y) + 1})
		}
		a.Sort()
		b.Sort()
		m := Merge(a, b)
		return len(m) == len(a)+len(b) && m.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtAndCivil(t *testing.T) {
	tt := At(1800, 1, 1, 0, 0, 0)
	if tt != 1 {
		t.Fatalf("At(anchor) = %d, want 1", tt)
	}
	if got := Civil(1); got != "1800-01-01 00:00:00" {
		t.Fatalf("Civil(1) = %q", got)
	}
	tt = At(1996, 6, 3, 9, 30, 15)
	if got := Civil(tt); got != "1996-06-03 09:30:15" {
		t.Fatalf("Civil round trip = %q", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := Sequence{{"IBM-rise", 100}, {"IBM-fall", 200}, {"HP-rise", 200}}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("round trip length %d != %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("event %d: %v != %v", i, got[i], s[i])
		}
	}
}

func TestDecodeComments(t *testing.T) {
	in := "# header\n\n10 a\n5 b\n"
	s, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0].Type != "b" {
		t.Fatalf("decode = %v", s)
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, in := range []string{"abc", "x y z", "notanumber a", "0 a"} {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("Decode(%q) should fail", in)
		}
	}
}

func TestEncodeRejectsWhitespaceTypes(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Sequence{{"bad type", 1}}); err == nil {
		t.Fatal("type with space should be rejected")
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := Poisson([]Type{"x", "y"}, 2, 1, 86400*30, 42)
	b := Poisson([]Type{"x", "y"}, 2, 1, 86400*30, 42)
	if len(a) != len(b) {
		t.Fatal("same seed should give same sequence")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should give same events")
		}
	}
	c := Poisson([]Type{"x", "y"}, 2, 1, 86400*30, 43)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds should differ")
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected count: 2 types * 2/day * 30 days = 120; allow wide slack.
	if len(a) < 60 || len(a) > 200 {
		t.Fatalf("poisson count %d implausible for mean 120", len(a))
	}
}

func TestPlant(t *testing.T) {
	base := Sequence{{"noise", 50}}
	p := Pattern{{"A", 0}, {"B", 10}}
	got := Plant(base, p, []int64{100, 200})
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.CountType("A") != 2 || got.CountType("B") != 2 || got.CountType("noise") != 1 {
		t.Fatalf("plant result wrong: %v", got)
	}
	if occ := got.Occurrences("B"); occ[0] != 110 || occ[1] != 210 {
		t.Fatalf("planted offsets wrong: %v", occ)
	}
}

func TestGenerateStock(t *testing.T) {
	s := GenerateStock(StockConfig{
		Symbols: []string{"IBM", "HP"}, StartYear: 1996, Days: 30, Seed: 7,
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.CountType("IBM-rise")+s.CountType("IBM-fall") == 0 {
		t.Fatal("no IBM price events generated")
	}
	if s.CountType("IBM-earnings-report") == 0 {
		t.Fatal("no earnings events in a quarter start window")
	}
	// All events on business days.
	for _, e := range s {
		rata := (e.Time-1)/calendar.SecondsPerDay + 1
		if !calendar.IsBusinessDay(rata, nil) {
			t.Fatalf("stock event %v on non-business day", e)
		}
	}
}

func TestGenerateATM(t *testing.T) {
	s := GenerateATM(ATMConfig{Accounts: 3, StartYear: 1995, Days: 20, Seed: 5})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s) == 0 {
		t.Fatal("no ATM events generated")
	}
	for _, e := range s {
		name := string(e.Type)
		if !strings.HasPrefix(name, "deposit-") && !strings.HasPrefix(name, "withdrawal-") && !strings.HasPrefix(name, "balance-") {
			t.Fatalf("unexpected type %q", name)
		}
	}
}

func TestGeneratePlant(t *testing.T) {
	s := GeneratePlant(PlantFaultConfig{Machines: 4, StartYear: 1996, Days: 120, Seed: 11, CascadeProb: 1})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// With cascade probability 1, every overheat has a same-count
	// malfunction and shutdown.
	for m := 0; m < 4; m++ {
		id := string(rune('0' + m))
		over := s.CountType(Type("overheat-m" + id))
		mal := s.CountType(Type("malfunction-m" + id))
		shut := s.CountType(Type("shutdown-m" + id))
		if over == 0 {
			t.Fatalf("machine %d: no overheats in 120 days", m)
		}
		if mal != over || shut != over {
			t.Fatalf("machine %d: cascade counts %d/%d/%d should match", m, over, mal, shut)
		}
	}
}

func TestGenerateAccess(t *testing.T) {
	s := GenerateAccess(AccessConfig{Hosts: 2, StartYear: 1996, Days: 56, Seed: 3, IntrusionProb: 1})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.CountType("access-h0") == 0 {
		t.Fatal("no benign accesses generated")
	}
	scans := s.Occurrences("scan-h0")
	if len(scans) == 0 {
		t.Fatal("no intrusions planted over 8 Mondays at prob 1")
	}
	// Every scan has failed logins in the same hour and a breach the same
	// day.
	for _, ts := range scans {
		hour := (ts - 1) / 3600
		day := (ts - 1) / 86400
		foundLogin, foundBreach := false, false
		for _, e := range s {
			if e.Type == "failed-login-h0" && (e.Time-1)/3600 == hour {
				foundLogin = true
			}
			if e.Type == "breach-h0" && (e.Time-1)/86400 == day && e.Time > ts {
				foundBreach = true
			}
		}
		if !foundLogin {
			t.Fatalf("scan at %d has no same-hour failed login", ts)
		}
		if !foundBreach {
			t.Fatalf("scan at %d has no same-day breach", ts)
		}
	}
}

// TestGenerateAccessScanOnHourEnd: seed 642 draws a scan on the last second
// of its hour, where drawing the failed logins used to call rand.Int63n(0)
// and panic. The scan now moves one second earlier, and each scan keeps its
// three failed logins after it within the same hour.
func TestGenerateAccessScanOnHourEnd(t *testing.T) {
	s := GenerateAccess(AccessConfig{Hosts: 3, StartYear: 2026, Days: 28, IntrusionProb: 0.8, Seed: 642})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"h0", "h1", "h2"} {
		for _, ts := range s.Occurrences(Type("scan-" + id)) {
			logins := 0
			for _, e := range s {
				if e.Type == Type("failed-login-"+id) && e.Time > ts && (e.Time-1)/3600 == (ts-1)/3600 {
					logins++
				}
			}
			if logins != 3 {
				t.Errorf("%s: scan at %d has %d later same-hour failed logins, want 3", id, ts, logins)
			}
		}
	}
}

func TestIndex(t *testing.T) {
	s := Sequence{{"a", 10}, {"b", 20}, {"a", 30}, {"c", 40}, {"a", 50}}
	ix := NewIndex(s)
	if ix.Types() != 3 {
		t.Fatalf("Types = %d", ix.Types())
	}
	if ix.Count("a") != 3 || ix.Count("zz") != 0 {
		t.Fatal("Count wrong")
	}
	if !ix.AnyIn("a", 25, 35) || ix.AnyIn("a", 31, 49) || ix.AnyIn("zz", 0, 100) {
		t.Fatal("AnyIn wrong")
	}
	got := ix.In("a", 10, 30)
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("In = %v", got)
	}
	if len(ix.In("a", 60, 70)) != 0 {
		t.Fatal("empty window should be empty")
	}
}

func TestIndexMatchesScan(t *testing.T) {
	s := GenerateATM(ATMConfig{Accounts: 2, StartYear: 1996, Days: 20, Seed: 2})
	ix := NewIndex(s)
	for _, typ := range s.Types() {
		for _, win := range [][2]int64{{1, 1 << 40}, {s[0].Time, s[len(s)-1].Time}, {s[2].Time, s[2].Time}} {
			want := 0
			for _, e := range s.Between(win[0], win[1]) {
				if e.Type == typ {
					want++
				}
			}
			if got := len(ix.In(typ, win[0], win[1])); got != want {
				t.Fatalf("In(%s, %v) = %d, want %d", typ, win, got, want)
			}
			if ix.AnyIn(typ, win[0], win[1]) != (want > 0) {
				t.Fatalf("AnyIn(%s, %v) inconsistent", typ, win)
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	s := GenerateStock(StockConfig{Symbols: []string{"IBM", "HP"}, StartYear: 1996, Days: 40, Seed: 3})
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(s) {
		t.Fatalf("length %d != %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("event %d: %v != %v", i, got[i], s[i])
		}
	}
	// The binary form is much smaller than the text form for dense logs.
	var text bytes.Buffer
	if err := Encode(&text, s); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= text.Len() {
		t.Fatalf("binary (%d bytes) not smaller than text (%d bytes)", buf.Len(), text.Len())
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(raw []uint16, pick []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		types := []Type{"a", "bb", "ccc"}
		var s Sequence
		for i, x := range raw {
			typ := types[0]
			if i < len(pick) {
				typ = types[pick[i]%3]
			}
			s = append(s, Event{Type: typ, Time: int64(x) + 1})
		}
		s.Sort()
		var buf bytes.Buffer
		if err := EncodeBinary(&buf, s); err != nil {
			return false
		}
		got, err := DecodeBinary(&buf)
		if err != nil || len(got) != len(s) {
			return false
		}
		for i := range s {
			if got[i] != s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("WRONG"),
		[]byte("TSEQ1"),                  // truncated after magic
		append([]byte("TSEQ1"), 0x01),    // type count 1, then EOF
		append([]byte("TSEQ1"), 0x00, 5), // 0 types but 5 events, then EOF
		append([]byte("TSEQ1"), 1, 0),    // type with empty name
		append([]byte("TSEQ1"), 1, 1, 'a', 1, 9, 0), // event references type 9
	}
	for i, in := range cases {
		if _, err := DecodeBinary(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
	// Invalid (zero) timestamp: first delta 0 -> time 0.
	valid := append([]byte("TSEQ1"), 1, 1, 'a', 1, 0, 0)
	if _, err := DecodeBinary(bytes.NewReader(valid)); err == nil {
		t.Error("timestamp 0 accepted")
	}
}

func TestEncodeBinaryRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, Sequence{{"a", 5}, {"b", 3}}); err == nil {
		t.Fatal("unsorted sequence accepted")
	}
}

func TestSummarize(t *testing.T) {
	s := Sequence{{Type: "a", Time: 1}, {Type: "b", Time: 86400}, {Type: "a", Time: 172800}}
	st := Summarize(s)
	if st.Events != 3 || st.TypeCounts["a"] != 2 || st.TypeCounts["b"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.First != 1 || st.Last != 172800 {
		t.Fatalf("span = %d..%d", st.First, st.Last)
	}
	if d := st.SpanDays(); d < 1.99 || d > 2.01 {
		t.Fatalf("span days = %v", d)
	}
	empty := Summarize(nil)
	if empty.Events != 0 || empty.SpanDays() != 0 {
		t.Fatalf("empty stats = %+v", empty)
	}
}

func TestDedupe(t *testing.T) {
	s := Sequence{{Type: "a", Time: 1}, {Type: "a", Time: 1}, {Type: "b", Time: 1}, {Type: "a", Time: 2}, {Type: "a", Time: 2}}
	got := s.Dedupe()
	want := Sequence{{Type: "a", Time: 1}, {Type: "b", Time: 1}, {Type: "a", Time: 2}}
	if len(got) != len(want) {
		t.Fatalf("dedupe = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupe = %v", got)
		}
	}
	if len((Sequence{}).Dedupe()) != 0 {
		t.Fatal("empty dedupe")
	}
}

func TestDedupeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var s Sequence
		for i, x := range raw {
			s = append(s, Event{Type: Type(string(rune('a' + i%3))), Time: int64(x%20) + 1})
		}
		s.Sort()
		d := s.Dedupe()
		// No duplicates remain and every event still present.
		seen := map[Event]bool{}
		for _, e := range d {
			if seen[e] {
				return false
			}
			seen[e] = true
		}
		for _, e := range s {
			if !seen[e] {
				return false
			}
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
