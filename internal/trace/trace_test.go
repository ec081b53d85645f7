package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ap1000plus/internal/topology"
)

func sampleTrace() *TraceSet {
	ts := New("sample", 2, 2)
	g := ts.AddGroup([]topology.CellID{0, 1})
	r := NewRecorder()
	r.Compute(10.5)
	r.Put(1, 700, 1, 1, 2, true, true)
	r.Put(2, 2048, 8, 1, 2, false, true) // stride PUT
	r.Get(3, 1600, 1, 0, 3, false)
	r.Get(1, 512, 4, 0, 3, true) // stride GET
	r.Send(1, 128, false)
	r.FlagWait(AckFlag, 2)
	r.Barrier(AllGroup)
	r.GopScalar(g, ReduceSum)
	r.GopVector(AllGroup, ReduceMax, 11200)
	ts.PE[0] = r.Events()
	r1 := NewRecorder()
	r1.Recv(0, 128, false)
	r1.Barrier(AllGroup)
	r1.GopScalar(g, ReduceSum)
	r1.GopVector(AllGroup, ReduceMax, 11200)
	ts.PE[1] = r1.Events()
	for pe := 2; pe < 4; pe++ {
		r := NewRecorder()
		r.Barrier(AllGroup)
		r.GopVector(AllGroup, ReduceMax, 11200)
		ts.PE[pe] = r.Events()
	}
	return ts
}

func TestValidateOK(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	mutations := []struct {
		name string
		f    func(*TraceSet)
		want string // a substring of the error, when it names the culprit
	}{
		{"bad peer", func(ts *TraceSet) { ts.PE[0][1].Peer = 99 }, ""},
		{"bad group", func(ts *TraceSet) { ts.PE[0][7].Group = 42 }, ""},
		{"negative size", func(ts *TraceSet) { ts.PE[0][1].Size = -1 }, ""},
		{"zero items", func(ts *TraceSet) { ts.PE[0][1].Items = 0 }, ""},
		{"stream count", func(ts *TraceSet) { ts.PE = ts.PE[:2] }, ""},
		{"group0 not all", func(ts *TraceSet) { ts.Meta.Groups[0] = ts.Meta.Groups[0][:1] }, ""},
		{"empty group", func(ts *TraceSet) { ts.Meta.Groups[1] = nil }, ""},
		// PE 2 is not in group {0,1}: counted as an arrival it would
		// release the members before PE 1 arrives.
		{"non-member collective", func(ts *TraceSet) {
			ts.PE[2] = append(ts.PE[2], Event{Kind: KindBarrier, Group: 1})
		}, "pe 2 event 2: barrier on group 1"},
		// {0,0,1} has three entries but two PEs: its barrier never
		// completes.
		{"duplicate member", func(ts *TraceSet) { ts.Meta.Groups[1] = []topology.CellID{0, 0, 1} }, "group 1 lists member 0 twice"},
		{"duplicate member in group 0", func(ts *TraceSet) { ts.Meta.Groups[0] = []topology.CellID{0, 1, 1, 3} }, "group 0 lists member 1 twice"},
	}
	for _, m := range mutations {
		ts := sampleTrace()
		m.f(ts)
		err := ts.Validate()
		if err == nil {
			t.Errorf("%s: Validate should fail", m.name)
		} else if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: err = %v, want it to name %q", m.name, err, m.want)
		}
	}
}

func TestRecorderComputeMerges(t *testing.T) {
	r := NewRecorder()
	r.Compute(1)
	r.Compute(2)
	r.Compute(0)  // dropped
	r.Compute(-5) // dropped
	r.Put(0, 8, 1, 0, 0, false, false)
	r.Compute(4)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %v", evs)
	}
	if evs[0].Dur != 3 || evs[2].Dur != 4 {
		t.Fatalf("merge wrong: %v", evs)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ts := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta, ts.Meta) {
		t.Fatalf("meta mismatch:\n got %+v\nwant %+v", got.Meta, ts.Meta)
	}
	for pe := range ts.PE {
		if !reflect.DeepEqual(got.PE[pe], ts.PE[pe]) {
			t.Fatalf("pe %d mismatch:\n got %+v\nwant %+v", pe, got.PE[pe], ts.PE[pe])
		}
	}
}

// Property-based round trip over randomized events.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randEvent := func() Event {
		switch rng.Intn(9) {
		case 0:
			return Event{Kind: KindCompute, Dur: float64(rng.Intn(1000)) / 4}
		case 1:
			return Event{Kind: KindPut, Peer: topology.CellID(rng.Intn(4)), Size: int64(rng.Intn(1 << 20)), Items: 1 + rng.Int63n(1<<33), SendFlag: FlagID(rng.Intn(10)), RecvFlag: FlagID(rng.Intn(10)), Ack: rng.Intn(2) == 0, RTS: rng.Intn(2) == 0}
		case 2:
			return Event{Kind: KindGet, Peer: topology.CellID(rng.Intn(4)), Size: int64(rng.Intn(1 << 20)), Items: 1 + rng.Int63n(1<<33), RecvFlag: FlagID(rng.Intn(10))}
		case 3:
			return Event{Kind: KindSend, Peer: topology.CellID(rng.Intn(4)), Size: int64(rng.Intn(65536))}
		case 4:
			return Event{Kind: KindRecv, Peer: topology.CellID(rng.Intn(4)), Size: int64(rng.Intn(65536))}
		case 5:
			return Event{Kind: KindBarrier}
		case 6:
			return Event{Kind: KindGopScalar, Op: ReduceOp(rng.Intn(3)), Size: 8}
		case 7:
			return Event{Kind: KindGopVector, Op: ReduceOp(rng.Intn(3)), Size: int64(rng.Intn(100000))}
		default:
			return Event{Kind: KindFlagWait, Flag: FlagID(rng.Int31n(100) - 1), Target: int64(rng.Intn(10000))}
		}
	}
	for trial := 0; trial < 25; trial++ {
		ts := New("prop", 2, 2)
		for pe := 0; pe < 4; pe++ {
			n := rng.Intn(50)
			for i := 0; i < n; i++ {
				ts.PE[pe] = append(ts.PE[pe], randEvent())
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, ts); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for pe := range ts.PE {
			if len(got.PE[pe]) != len(ts.PE[pe]) {
				t.Fatalf("trial %d pe %d: %d events, want %d", trial, pe, len(got.PE[pe]), len(ts.PE[pe]))
			}
			for i := range ts.PE[pe] {
				if got.PE[pe][i] != ts.PE[pe][i] {
					t.Fatalf("trial %d pe %d event %d:\n got %+v\nwant %+v", trial, pe, i, got.PE[pe][i], ts.PE[pe][i])
				}
			}
		}
	}
}

// TestCodecWideFields covers the v1→v2 wire-format fix: item counts
// and flag identifiers beyond 2^31 must round-trip bit-exactly
// (paper-size FT/MatMul redistributions exceed 32-bit item counts).
func TestCodecWideFields(t *testing.T) {
	ts := New("wide", 2, 2)
	wide := []Event{
		{Kind: KindPut, Peer: 1, Size: 1 << 40, Items: int64(1)<<31 + 7, SendFlag: FlagID(1)<<40 + 3, RecvFlag: FlagID(1)<<33 + 1},
		{Kind: KindGet, Peer: 2, Size: 4, Items: int64(1)<<62 + 11, SendFlag: -FlagID(1) << 35, RecvFlag: 2},
		{Kind: KindFlagWait, Flag: FlagID(1)<<34 + 5, Target: int64(1)<<33 + 9},
	}
	ts.PE[0] = wide
	var buf bytes.Buffer
	if err := Write(&buf, ts); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.PE[0], wide) {
		t.Fatalf("wide fields truncated:\n got %+v\nwant %+v", got.PE[0], wide)
	}
}

// encodeV1 writes a trace in the legacy 40-byte v1 record format, for
// backward-compatibility testing of the reader.
func encodeV1(ts *TraceSet) []byte {
	var buf bytes.Buffer
	buf.WriteString("APTR")
	w32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	binary.Write(&buf, binary.LittleEndian, uint16(1)) // version
	binary.Write(&buf, binary.LittleEndian, uint16(len(ts.Meta.App)))
	buf.WriteString(ts.Meta.App)
	w32(uint32(ts.Meta.PEs))
	w32(uint32(ts.Meta.Width))
	w32(uint32(ts.Meta.Height))
	w32(uint32(len(ts.Meta.Groups)))
	for _, g := range ts.Meta.Groups {
		w32(uint32(len(g)))
		for _, m := range g {
			w32(uint32(int32(m)))
		}
	}
	var b [40]byte
	for _, evs := range ts.PE {
		w32(uint32(len(evs)))
		for i := range evs {
			e := &evs[i]
			for j := range b {
				b[j] = 0
			}
			b[0] = byte(e.Kind)
			b[1] = byte(e.Op)
			if e.Ack {
				b[2] |= 1
			}
			if e.RTS {
				b[2] |= 2
			}
			binary.LittleEndian.PutUint32(b[4:], uint32(int32(e.Peer)))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(e.Dur))
			binary.LittleEndian.PutUint64(b[16:], uint64(e.Size))
			binary.LittleEndian.PutUint32(b[24:], uint32(e.Items))
			binary.LittleEndian.PutUint32(b[28:], uint32(e.SendFlag))
			binary.LittleEndian.PutUint32(b[32:], uint32(e.RecvFlag))
			switch e.Kind {
			case KindFlagWait:
				binary.LittleEndian.PutUint32(b[36:], uint32(e.Flag))
				binary.LittleEndian.PutUint64(b[16:], uint64(e.Target))
			default:
				binary.LittleEndian.PutUint32(b[36:], uint32(e.Group))
			}
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

// TestReadLegacyV1 keeps the v1 reader honest: traces captured before
// the format widening must still decode exactly.
func TestReadLegacyV1(t *testing.T) {
	ts := sampleTrace()
	got, err := Read(bytes.NewReader(encodeV1(ts)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta, ts.Meta) {
		t.Fatalf("v1 meta mismatch:\n got %+v\nwant %+v", got.Meta, ts.Meta)
	}
	for pe := range ts.PE {
		if !reflect.DeepEqual(got.PE[pe], ts.PE[pe]) {
			t.Fatalf("v1 pe %d mismatch:\n got %+v\nwant %+v", pe, got.PE[pe], ts.PE[pe])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("APTR"),
		append([]byte("APTR"), 0xFF, 0xFF), // bad version
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: Read should fail", i)
		}
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated at %d: Read should fail", cut)
		}
	}
}

func TestStatsTable3(t *testing.T) {
	ts := sampleTrace()
	row := Stats(ts)
	// 4 PEs. PE0: 1 put, 1 puts, 1 get, 1 gets, 1 send. All: 1 sync each.
	if row.Put != 0.25 || row.PutS != 0.25 || row.Get != 0.25 || row.GetS != 0.25 {
		t.Errorf("put/get stats: %+v", row)
	}
	if row.Send != 0.25 {
		t.Errorf("send = %v", row.Send)
	}
	if row.Sync != 1.0 {
		t.Errorf("sync = %v", row.Sync)
	}
	if row.Gop != 0.5 { // 2 gops over 4 PEs
		t.Errorf("gop = %v", row.Gop)
	}
	if row.VGop != 1.0 {
		t.Errorf("vgop = %v", row.VGop)
	}
	wantSize := float64(700+2048+1600+512) / 4
	if row.MsgSize != wantSize {
		t.Errorf("msg size = %v, want %v", row.MsgSize, wantSize)
	}
	if row.ComputeUs != 10.5/4 {
		t.Errorf("compute = %v", row.ComputeUs)
	}
}

func TestSizeHistogram(t *testing.T) {
	ts := sampleTrace()
	sizes, counts := SizeHistogram(ts)
	if len(sizes) != 4 {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i-1] >= sizes[i] {
			t.Fatalf("sizes not sorted: %v", sizes)
		}
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("total count = %d", total)
	}
}

func TestCommBytes(t *testing.T) {
	got := CommBytes(sampleTrace())
	want := float64(700+2048+1600+512) / 4
	if got != want {
		t.Fatalf("CommBytes = %v, want %v", got, want)
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindCompute, Dur: 1.5}, "compute 1.500us"},
		{Event{Kind: KindBarrier, Group: 2}, "barrier group=2"},
		{Event{Kind: KindGopScalar, Op: ReduceMax}, "gop group=0 op=max"},
		{Event{Kind: KindFlagWait, Flag: -1, Target: 3}, "flagwait flag=-1 target=3"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if s := (Event{Kind: KindPut, Peer: 3, Size: 8, Items: 1, Ack: true}).String(); !strings.Contains(s, "ack") {
		t.Errorf("put string missing ack: %q", s)
	}
}

func TestDump(t *testing.T) {
	var buf bytes.Buffer
	if err := Dump(&buf, sampleTrace(), 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "app=sample") || !strings.Contains(out, "pe0:") {
		t.Errorf("dump = %q", out)
	}
	if !strings.Contains(out, "more") {
		t.Errorf("dump should truncate at 3 events per PE:\n%s", out)
	}
}

func TestWriteTable3(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable3(&buf, []Table3Row{Stats(sampleTrace())}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sample") {
		t.Errorf("table = %q", buf.String())
	}
}

func TestKindString(t *testing.T) {
	if KindPut.String() != "put" || KindGopVector.String() != "vgop" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Error("unknown kind should show number")
	}
}

// quick.Check: Stats never returns negative values for valid traces.
func TestStatsNonNegative(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := New("q", 2, 2)
		for pe := 0; pe < 4; pe++ {
			r := NewRecorder()
			for i := 0; i < rng.Intn(20); i++ {
				r.Put(topology.CellID(rng.Intn(4)), int64(rng.Intn(1000)), 1, 0, 0, false, false)
				r.Compute(rng.Float64() * 10)
			}
			ts.PE[pe] = r.Events()
		}
		row := Stats(ts)
		return row.Put >= 0 && row.MsgSize >= 0 && row.ComputeUs >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	ts := sampleTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, ts); err != nil {
			b.Fatal(err)
		}
	}
}
