package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"powerstruggle/internal/cluster"
)

// canonicalValues returns one representative message per frame type;
// canonicalMessages is their payloads by frame type. The round-trip,
// golden and fuzz corpora share them.
func canonicalValues() []any {
	rep := Report{
		V: ProtocolV, Server: 3, Epoch: 2, Seq: 17,
		CapW: 85.5, PerfN: 0.92, GridW: 80.25, SoC: 0.5,
		Fenced: false, SafeMode: true, IdleFloorW: 25, NameplateW: 120,
		Version: "v1.2.3", Iv: 42,
		UtilityCurve: []cluster.CapPoint{
			{CapW: 25, Perf: 0, GridW: 25},
			{CapW: 60, Perf: 0.61, GridW: 55.5},
			{CapW: 120, Perf: 1, GridW: 110},
		},
	}
	rep.CurveVer = curveVersion(rep.UtilityCurve)
	// learned is a live daemon's report: the curve came from the online
	// estimator, so the count u32's meta flag is set and confidence +
	// observed cells trail the points. Its scraper held this version, so
	// the slot carries the version and the meta but no points.
	learned := rep2(rep, 5)
	learned.CurveConf = 0.75
	learned.CurveCells = 9
	learned.UtilityCurve = nil
	rollup := []cluster.CapPoint{
		{CapW: 5625, Perf: 0, GridW: 5625},
		{CapW: 6500, Perf: 61.5, GridW: 6400},
		{CapW: 7500, Perf: 125, GridW: 7400},
	}
	term := WireTerm{Epoch: 4, Leader: "coord-a", ExpiresUnixNano: 1700000000000000000}
	return []any{
		&RegisterRequest{
			V: ProtocolV, Server: 3, URL: "tcp://10.0.0.7:9000", NameplateW: 120,
		},
		&RegisterResponse{
			V: ProtocolV, Server: 3, Accepted: true, Epoch: 2, Leader: true, LeaderID: "coord-a",
		},
		&VoteRequest{
			V: ProtocolV, Phase: VoteAccept, Ballot: 7, Term: &term,
		},
		&VoteResponse{
			V: ProtocolV, Granted: true, Promise: 7, AcceptedBallot: 7, Term: &term,
		},
		&BatchScrapeRequest{
			V: ProtocolV, T: 1200.5, HasT: true, Servers: []int{0, 1, 5},
			Held: []uint64{0, 0, rep.CurveVer},
		},
		&BatchScrapeResponse{
			V: ProtocolV, Results: []ScrapeResult{
				{Server: 0, Report: rep2(rep, 0)},
				{Server: 1, Err: "no agent 1 behind this listener"},
				{Server: 5, Report: learned},
			},
		},
		&BatchGrantRequest{
			V: ProtocolV, Epoch: 2, Seq: 9, T: 1200.5,
			Iv: 42, LeaseIv: 3, IvS: 1.5,
			Entries: []GrantEntry{
				{Server: 0, CapW: 80, Renew: true},
				{Server: 1, CapW: 40.5, Renew: false},
			},
		},
		&BatchGrantResponse{
			V: ProtocolV, Results: []GrantResult{
				{Server: 0, Renewed: true, Resp: AssignResponse{V: ProtocolV, Server: 0, Epoch: 2, CapW: 80, Iv: 42}},
				{Server: 1, Err: "lost it"},
			},
		},
		&ShardReportRequest{
			V: ProtocolV, Shard: 2, T: 1200.5, HasT: true, Iv: 42, Held: 0x5eed,
		},
		&ShardReport{
			V: ProtocolV, Shard: 2, Epoch: 3, Seq: 11, T: 1200.5, Leading: true,
			Agents: 125, FloorW: 5625, DemandW: 7500, UsedW: 6200.5, CapW: 6450,
			BudgetW: 6500, Starved: false,
			Curve: rollup, CurveVer: curveVersion(rollup),
			GEpoch: 3, GSeq: 11, GIv: 42,
		},
		&ShardBudgetRequest{
			V: ProtocolV, Epoch: 2, Seq: 9, Shard: 2, T: 1200.5, CapW: 6500,
			Iv: 42, LeaseIv: 3, IvS: 1.5,
		},
		&ShardBudgetResponse{
			V: ProtocolV, Shard: 2, Epoch: 2, Seq: 9, Applied: true, CapW: 6500, Iv: 42,
		},
		&frameRemoteError{msg: "agent 3: no such server"},
	}
}

func canonicalMessages() map[byte][]byte {
	out := map[byte][]byte{}
	for _, m := range canonicalValues() {
		p, ftype := encode(nil, m)
		out[ftype] = p
	}
	return out
}

// heldCurves is the canonical payload of frame type ftype as a steady
// interval sends it: every curve's version, none of its points.
func heldCurves(ftype byte) []byte {
	for _, m := range canonicalValues() {
		switch m := m.(type) {
		case *BatchScrapeResponse:
			if ftype == FrameBatchScrapeResp {
				for i := range m.Results {
					m.Results[i].Report.UtilityCurve = nil
				}
				return wireBytes(m)
			}
		case *ShardReport:
			if ftype == FrameShardReportResp {
				m.Curve = nil
				return wireBytes(m)
			}
		}
	}
	return canonicalMessages()[ftype]
}

func rep2(r Report, server int) Report {
	r.Server = server
	return r
}

// wireBytes is m's encoded payload.
func wireBytes(m any) []byte {
	p, _ := encode(nil, m)
	return p
}

// messageTypes is the test-side inverse of walk, frame type → Go type,
// and newMessage a zero message of the type frame type ftype carries, or
// nil for a type no message has.
var messageTypes = func() map[byte]reflect.Type {
	types := map[byte]reflect.Type{}
	for _, m := range canonicalValues() {
		_, ftype := encode(nil, m)
		types[ftype] = reflect.TypeOf(m).Elem()
	}
	return types
}()

func newMessage(ftype byte) any {
	if t, ok := messageTypes[ftype]; ok {
		return reflect.New(t).Interface()
	}
	return nil
}

// The dirty destinations: each last held a different, larger message
// than anything in the corpora, with every field set — errors, curves,
// curve meta, even an error beside a report, which no decode produces.
func dirtyCurve() []cluster.CapPoint {
	return []cluster.CapPoint{{CapW: 1, Perf: 2, GridW: 3}, {CapW: 4, Perf: 5, GridW: 6}, {CapW: 7, Perf: 8, GridW: 9},
		{CapW: 10, Perf: 11, GridW: 12}, {CapW: 13, Perf: 14, GridW: 15}}
}

func dirtyReport() Report {
	return Report{V: 99, Server: 77, Epoch: 88, Seq: 99, CapW: 11, PerfN: 12, GridW: 13, SoC: 0.9,
		Fenced: true, SafeMode: true, IdleFloorW: 14, NameplateW: 15, UtilityCurve: dirtyCurve(),
		CurveConf: 0.33, CurveCells: 44, Version: "dirty-build", Iv: 55}
}

// dirtyMessage is the dirty destination of the five messages that decode
// into a reusable one, nil for the rest.
func dirtyMessage(ftype byte) any {
	dirtyAck := AssignResponse{V: 99, Server: 77, Epoch: 88, Seq: 99, Applied: true, CapW: 11, PerfN: 12,
		GridW: 13, SoC: 0.9, Fenced: true, SafeMode: true, Iv: 55}
	switch ftype {
	case FrameBatchScrapeReq:
		return &BatchScrapeRequest{V: 99, T: 77, HasT: true, Servers: []int{9, 8, 7, 6, 5, 4, 3, 2, 1}}
	case FrameBatchScrapeResp:
		resp := &BatchScrapeResponse{V: 99}
		for i := 0; i < 7; i++ {
			resp.Results = append(resp.Results, ScrapeResult{Server: 70 + i, Err: "stale error", Report: dirtyReport()})
		}
		return resp
	case FrameBatchGrantReq:
		req := &BatchGrantRequest{V: 99, Epoch: 88, Seq: 99, T: 77, Iv: 55, LeaseIv: 66, IvS: 7}
		for i := 0; i < 9; i++ {
			req.Entries = append(req.Entries, GrantEntry{Server: 70 + i, CapW: 11, Renew: true})
		}
		return req
	case FrameBatchGrantResp:
		resp := &BatchGrantResponse{V: 99}
		for i := 0; i < 7; i++ {
			resp.Results = append(resp.Results, GrantResult{Server: 70 + i, Err: "stale error", Renewed: true, Resp: dirtyAck})
		}
		return resp
	case FrameShardReportResp:
		return &ShardReport{V: 99, Shard: 77, Epoch: 88, Seq: 99, T: 11, Leading: true, Agents: 12, FloorW: 13,
			DemandW: 14, UsedW: 15, CapW: 16, BudgetW: 17, Starved: true, Curve: dirtyCurve(), GEpoch: 18, GSeq: 19, GIv: 20}
	}
	return nil
}

// decodeReused decodes p as ftype's message into a zero destination and
// returns it. For the messages with a dirty destination it is also the
// decode-into equivalence check every corpus and fuzz input runs through:
// p decoded into the zero destination, into the dirty one, and into one
// already holding p's own message must agree — the same rejection, or the
// same value down to fields the wire does not carry (a slot's report
// beside its error) and the same re-encoding — so reusing a destination
// can never leak a stale slot.
func decodeReused(t testing.TB, ftype byte, p []byte) (any, error) {
	t.Helper()
	got := newMessage(ftype)
	if got == nil {
		return nil, errUnknownFrame
	}
	err := decode(p, got)
	dirty := dirtyMessage(ftype)
	if dirty == nil {
		return got, err
	}
	derr := decode(p, dirty)
	if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
		t.Fatalf("%T: fresh decode says %v, dirty destination says %v", got, err, derr)
	}
	if err != nil {
		return nil, err
	}
	// held shares got's slices: the destination already holds p.
	held := reflect.New(reflect.TypeOf(got).Elem())
	held.Elem().Set(reflect.ValueOf(got).Elem())
	if err := decode(p, held.Interface()); err != nil {
		t.Fatalf("%T: decode into a destination holding the same message: %v", got, err)
	}
	again := newMessage(ftype)
	if err := decode(p, again); err != nil {
		t.Fatalf("%T: second fresh decode: %v", got, err)
	}
	for name, reused := range map[string]any{"dirty": dirty, "held": held.Interface()} {
		if !bytes.Equal(wireBytes(reused), wireBytes(got)) {
			t.Fatalf("%T: %s destination re-encodes differently:\n got %+v\nwant %+v", got, name, reused, got)
		}
		// NaNs (legal in an unvalidated acknowledgement) defeat DeepEqual
		// between any two decodes, two fresh ones included. (Not got with
		// itself: a pointer or a slice is deeply equal to itself whatever
		// it holds.)
		if reflect.DeepEqual(again, got) && !reflect.DeepEqual(reused, got) {
			t.Fatalf("%T: %s destination kept stale state:\n got %+v\nwant %+v", got, name, reused, got)
		}
	}
	return got, nil
}

// reencodePayload decodes payload as ftype's message (through
// decodeReused) and re-encodes it; err is the decode error.
func reencodePayload(t testing.TB, ftype byte, p []byte) ([]byte, error) {
	t.Helper()
	m, err := decodeReused(t, ftype, p)
	if err != nil {
		return nil, err
	}
	return wireBytes(m), nil
}

var errUnknownFrame = errors.New("unknown frame type")

// TestFrameRoundTrip proves every message type survives encode → frame
// → decode → re-encode byte-identically.
func TestFrameRoundTrip(t *testing.T) {
	for ftype, payload := range canonicalMessages() {
		frame := EncodeFrame(ftype, payload)
		gotType, gotPayload, rest, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("frame %#02x: %v", ftype, err)
		}
		if gotType != ftype || len(rest) != 0 {
			t.Fatalf("frame %#02x decoded as %#02x with %d rest bytes", ftype, gotType, len(rest))
		}
		re, err := reencodePayload(t, ftype, gotPayload)
		if err != nil {
			t.Fatalf("frame %#02x payload decode: %v", ftype, err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("frame %#02x re-encoded %d bytes != original %d", ftype, len(re), len(payload))
		}
		// Both ends of a conn build a frame in place — header, payload
		// appended after it, type and length patched — and read it back
		// through the conn's buffer: the same bytes as EncodeFrame's, the
		// same payload as DecodeFrame's.
		inPlace := finishFrame(append(appendFrameHeader([]byte("junk")[:0]), payload...), ftype)
		if !bytes.Equal(inPlace, frame) {
			t.Fatalf("frame %#02x: built in place %x != EncodeFrame's %x", ftype, inPlace, frame)
		}
		var buf []byte
		readType, readPayload, err := readFrame(bytes.NewReader(frame), &buf)
		if err != nil || readType != ftype || !bytes.Equal(readPayload, payload) {
			t.Fatalf("frame %#02x: readFrame gave type %#02x, %d payload bytes, err %v", ftype, readType, len(readPayload), err)
		}
	}
}

// TestTypedRoundTrips checks decoded values match the originals
// field-for-field, through the one walk in both directions (that the walk
// lists the fields in the wire's order is TestWireGolden's to pin).
func TestTypedRoundTrips(t *testing.T) {
	rep := Report{
		V: ProtocolV, Server: 5, Epoch: 3, Seq: 21, CapW: 60, PerfN: 0.7,
		GridW: 58, SoC: 0.25, Fenced: true, IdleFloorW: 25, NameplateW: 120,
		Version:      "dev",
		UtilityCurve: []cluster.CapPoint{{CapW: 25, Perf: 0, GridW: 25}, {CapW: 120, Perf: 1, GridW: 110}},
	}
	rep.CurveVer = curveVersion(rep.UtilityCurve)
	// A learned curve's meta fields survive the flag-bit encoding, with
	// and without the points beside the version.
	learned := rep
	learned.CurveConf, learned.CurveCells = 0.375, 3
	elided := learned
	elided.UtilityCurve = nil
	shardCurve := []cluster.CapPoint{{CapW: 720, Perf: 0, GridW: 720}, {CapW: 960, Perf: 16, GridW: 950}}
	for _, want := range []any{
		&BatchScrapeResponse{V: ProtocolV, Results: []ScrapeResult{{Server: 5, Report: rep}, {Server: 6, Report: learned}, {Server: 7, Report: elided}}},
		&BatchScrapeRequest{V: ProtocolV, Servers: []int{5, 6}, Held: []uint64{0, rep.CurveVer}},
		&VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 3},
		&ShardReport{
			V: ProtocolV, Shard: 4, Epoch: 2, Seq: 33, T: 900, Leading: true,
			Agents: 16, FloorW: 720, DemandW: 960, UsedW: 801.5, CapW: 850, BudgetW: 860,
			Starved: true,
			Curve:   shardCurve, CurveVer: curveVersion(shardCurve),
			GEpoch: 1, GSeq: 8, GIv: 7,
		},
		&ShardReport{V: ProtocolV, Shard: 4, T: 900, CurveVer: curveVersion(shardCurve)},
		&ShardBudgetRequest{V: ProtocolV, Epoch: 3, Seq: 5, Shard: 1, T: 600, CapW: 512.5, Iv: 7, LeaseIv: 2, IvS: 0.5},
		&BatchGrantRequest{
			V: ProtocolV, Epoch: 2, Seq: 7, T: 600,
			Iv: 7, LeaseIv: 2, IvS: 0.5,
			Entries: []GrantEntry{{Server: 0, CapW: 50, Renew: true}, {Server: 9, CapW: 0}},
		},
	} {
		p, ftype := encode(nil, want)
		got := newMessage(ftype)
		if err := decode(p, got); err != nil {
			t.Fatalf("%T: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// roundTripAllocs decodes p into a stack destination and encodes that
// into a reused buffer, from inside a generic function as exchange does.
func roundTripAllocs[M any](t *testing.T, p []byte) {
	t.Helper()
	var buf []byte
	if allocs := testing.AllocsPerRun(20, func() {
		var m M
		if err := decode(p, &m); err != nil {
			t.Fatal(err)
		}
		buf, _ = encode(buf[:0], &m)
	}); allocs != 0 {
		var m M
		t.Errorf("%T: decode into a stack destination + encode allocates %v objects", m, allocs)
	}
}

// goldenLine is one line of testdata/wire_v5.golden.
type goldenLine struct {
	name    string
	ftype   byte
	ok      bool
	payload []byte
}

func readGolden(t *testing.T) []goldenLine {
	t.Helper()
	data, err := os.ReadFile("testdata/wire_v5.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenLine
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(f) != 4 {
			t.Fatalf("golden line %q: want 4 fields", line)
		}
		ftype, err := strconv.ParseUint(f[1], 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := hex.DecodeString(strings.TrimPrefix(f[3], "-"))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenLine{f[0], byte(ftype), f[2] == "ok", p})
	}
	return out
}

// TestWireGolden holds the walks to the bytes the hand-written encoders
// they replaced produced, and to those decoders' verdicts. One walk
// drives both directions, so a round trip cannot see two same-width
// fields transposed; the golden file can. It was generated by those
// encoders from canonicalMessages and edgeSeeds; v4 dropped the lines of
// the retired frame types and kept every other line byte for byte, and
// v5 re-derived the canonical lines of the four frame types whose layout
// it changed from the v5 walks, so its canonical lines are one per frame
// type and its edge lines are, in order, the leading seeds of edgeSeeds
// (registration and votes). Every
// payload the old decoders accepted must decode and re-encode to the
// same bytes under the same frame type, everything they refused must
// still be refused, and a canonical payload must decode to the literal
// it was built from, field by field.
func TestWireGolden(t *testing.T) {
	lines := readGolden(t)
	canonical := map[byte]any{}
	for _, m := range canonicalValues() {
		_, ftype := encode(nil, m)
		canonical[ftype] = m
	}
	seeds := edgeSeeds()
	nCanonical, nEdge := 0, 0
	for _, g := range lines {
		isCanonical := strings.HasPrefix(g.name, "canonical/")
		var source []byte
		if m, ok := canonical[g.ftype]; isCanonical && ok {
			source = wireBytes(m)
			nCanonical++
		} else if !isCanonical && nEdge < len(seeds) && seeds[nEdge].ftype == g.ftype {
			source = seeds[nEdge].payload
			nEdge++
		}
		if !bytes.Equal(source, g.payload) {
			t.Errorf("%s: the corpus now encodes %x, the golden file holds %x", g.name, source, g.payload)
		}
		m := newMessage(g.ftype)
		if m == nil {
			t.Errorf("%s: no message has frame type %#02x", g.name, g.ftype)
			continue
		}
		err := decode(g.payload, m)
		// The verdicts were recorded with a 64-bit int. A 32-bit decoder
		// may refuse more — a cell count past its int — never accept more.
		if (err == nil) != g.ok && (err == nil || strconv.IntSize == 64 || isCanonical) {
			t.Errorf("%s: decode says %v, the hand-written decoder said ok=%v", g.name, err, g.ok)
		}
		if err != nil {
			continue
		}
		if re, ftype := encode(nil, m); ftype != g.ftype || !bytes.Equal(re, g.payload) {
			t.Errorf("%s: re-encoded as frame %#02x %x, want %#02x %x", g.name, ftype, re, g.ftype, g.payload)
		}
		if isCanonical && !reflect.DeepEqual(m, canonical[g.ftype]) {
			t.Errorf("%s decoded as\n %+v, built from\n %+v", g.name, m, canonical[g.ftype])
		}
	}
	if nCanonical != len(canonical) {
		t.Errorf("golden file pins %d canonical payloads, the corpus has %d frame types", nCanonical, len(canonical))
	}
}

// framePair is the frame types of a binding's request and reply, read
// off walk.
func framePair[Req validator, Resp any](rpc[Req, Resp]) (pair [2]byte, reply string) {
	var resp Resp
	_, pair[0] = encode(nil, new(Req))
	_, pair[1] = encode(nil, &resp)
	return pair, reflect.TypeOf(resp).Name()
}

// TestWireSpecTable checks docs/WIRE.md against walk instead of trusting
// it: §2's frame-pair table must list exactly the bindings' pairs (and a
// reply must be its request's frame type + 1, which exchange relies on),
// and each payload row of §4 — `name type, …` — must add up, fixed widths
// only (repeated and optional groups absent), to the length the zero
// message of that frame type encodes to.
func TestWireSpecTable(t *testing.T) {
	spec, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	pairs := map[[2]byte]string{}
	add := func(pair [2]byte, reply string) {
		pairs[pair] = reply
		if pair[1] != pair[0]+1 {
			t.Errorf("%s answers frame %#02x as %#02x, not the next frame type", reply, pair[0], pair[1])
		}
	}
	add(framePair(rpcRegister))
	add(framePair(rpcVote))
	add(framePair(rpcBatchScrape))
	add(framePair(rpcBatchGrant))
	add(framePair(rpcShardReport))
	add(framePair(rpcShardBudget))
	pairRow := regexp.MustCompile("(?m)^\\|(.*)\\| `0x([0-9a-f]{2})` → `0x([0-9a-f]{2})` \\|$")
	for _, row := range pairRow.FindAllStringSubmatch(string(spec), -1) {
		req, _ := strconv.ParseUint(row[2], 16, 8)
		resp, _ := strconv.ParseUint(row[3], 16, 8)
		pair := [2]byte{byte(req), byte(resp)}
		if reply, ok := pairs[pair]; !ok || !strings.Contains(row[1], "`"+reply+"`") {
			t.Errorf("§2 row %q: walk pairs these frames as a reply %q (bound: %v)", row[0], reply, ok)
		}
		delete(pairs, pair)
	}
	if len(pairs) != 0 {
		t.Errorf("§2 lists no row for %v", pairs)
	}

	widths := map[string]int{"i64": 8, "u64": 8, "f64": 8, "u32": 4, "bool": 1, "string": 2}
	group := regexp.MustCompile("\\{[^}]*\\}×count|\\[[^\\]]*\\]")
	payloadRow := regexp.MustCompile("(?m)^\\| `0x([0-9a-f]{2})` [a-z ]+ \\| (?:`([^`]*)`|\\*\\(empty\\)\\*)")
	rows := map[byte]int{}
	for _, row := range payloadRow.FindAllStringSubmatch(string(spec), -1) {
		ftype, _ := strconv.ParseUint(row[1], 16, 8)
		size := 0
		for _, field := range strings.Split(group.ReplaceAllString(row[2], ""), ",") {
			if f := strings.Fields(field); len(f) == 2 && widths[f[1]] != 0 {
				size += widths[f[1]]
			} else if len(f) != 0 {
				t.Errorf("§4 row %#02x: field %q is not `name type`", ftype, field)
			}
		}
		rows[byte(ftype)] = size
	}
	for _, m := range canonicalValues() {
		_, ftype := encode(nil, m)
		size, ok := rows[ftype]
		if zero := wireBytes(newMessage(ftype)); !ok || len(zero) != size {
			t.Errorf("§4 row %#02x (listed: %v) adds up to %d bytes, a zero %T encodes to %d", ftype, ok, size, m, len(zero))
		}
		delete(rows, ftype)
	}
	if len(rows) != 0 {
		t.Errorf("§4 lays out frames no message has: %v", rows)
	}
}

// TestCodecWalkAllocs: the walk does not escape. Encoding into a reused
// buffer and decoding into a stack destination allocates nothing for a
// fixed-size message, nor does a steady interval's batch reply (every
// curve held, see heldCurves) into a warm destination —
// calling a walk through an interface, formatting the message in walk's
// panic or validating through an interface each moved every decode
// destination to the heap. And the panic is what an unknown type gets.
func TestCodecWalkAllocs(t *testing.T) {
	msgs := canonicalMessages()
	roundTripAllocs[ShardReportRequest](t, msgs[FrameShardReportReq])
	roundTripAllocs[ShardBudgetRequest](t, msgs[FrameShardBudgetReq])
	roundTripAllocs[ShardBudgetResponse](t, msgs[FrameShardBudgetResp])

	var buf []byte
	for _, warm := range []any{new(BatchScrapeResponse), new(BatchGrantResponse), new(BatchScrapeRequest), new(BatchGrantRequest), new(ShardReport)} {
		_, ftype := encode(nil, warm)
		p := heldCurves(ftype)
		if allocs := testing.AllocsPerRun(20, func() {
			if err := decode(p, warm); err != nil {
				t.Fatal(err)
			}
			buf, _ = encode(buf[:0], warm)
		}); allocs != 0 {
			t.Errorf("%T: decode into a warm destination + encode allocates %v objects", warm, allocs)
		}
	}

	defer func() {
		if r := recover(); r != "ctrlplane: walk of a type that is not a wire message" {
			t.Errorf("walk of a foreign type: recovered %v", r)
		}
	}()
	type foreign struct{ AssignRequest }
	encode(nil, &foreign{})
}

// TestDecodeFrameErrors is the malformed-frame table: truncation,
// garbage, oversize, and foreign versions must all be refused.
func TestDecodeFrameErrors(t *testing.T) {
	ok := EncodeFrame(FrameBatchGrantReq, wireBytes(&BatchGrantRequest{
		V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, LeaseIv: 1, IvS: 1, Entries: []GrantEntry{{CapW: 1}},
	}))
	oversize := make([]byte, frameHeaderLen)
	oversize[0], oversize[1], oversize[2], oversize[3] = frameMagic0, frameMagic1, ProtocolV, FrameRegisterReq
	binary.BigEndian.PutUint32(oversize[4:8], maxBodyBytes+1)
	// A length past 2³¹ is a negative int on a 32-bit platform.
	huge := mutate(oversize, 3, FrameBatchScrapeResp)
	binary.BigEndian.PutUint32(huge[4:8], math.MaxUint32)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", ok[:frameHeaderLen-1], "truncated"},
		{"bad magic", append([]byte("XX"), ok[2:]...), "bad frame magic"},
		{"garbage", []byte("GET /ctrl/report HTTP/1.1\r\n"), "bad frame magic"},
		{"foreign version", mutate(ok, 2, ProtocolV+1), "protocol v6"},
		{"v4 frame", mutate(ok, 2, 4), "protocol v4"},
		{"v3 frame", mutate(ok, 2, 3), "protocol v3"},
		{"zero version", mutate(ok, 2, 0), "protocol v0"},
		{"unknown type 0x00", mutate(ok, 3, 0x00), "unknown frame type"},
		{"unknown type 0x15", mutate(ok, 3, 0x15), "unknown frame type"},
		{"unknown type 0x80", mutate(ok, 3, 0x80), "unknown frame type"},
		{"oversize payload", oversize, "exceeds"},
		{"length past 2^31", huge, "exceeds"},
		{"truncated payload", ok[:len(ok)-4], "payload truncated"},
	}
	for _, tc := range cases {
		_, _, _, err := DecodeFrame(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// Trailing bytes after one frame are the next frame, not an error.
	two := append(append([]byte{}, ok...), ok...)
	_, _, rest, err := DecodeFrame(two)
	if err != nil || len(rest) != len(ok) {
		t.Fatalf("stacked frames: err=%v rest=%d want %d", err, len(rest), len(ok))
	}
}

func mutate(frame []byte, i int, v byte) []byte {
	out := append([]byte{}, frame...)
	out[i] = v
	return out
}

// lyingBatchResponses are batch response frames whose slot count is
// legal (≤ maxBatchEntries) but more than the payload behind it holds.
func lyingBatchResponses() [][]byte {
	msgs := canonicalMessages()
	var out [][]byte
	for _, ftype := range []byte{FrameBatchScrapeResp, FrameBatchGrantResp} {
		p := append([]byte(nil), msgs[ftype]...)
		binary.BigEndian.PutUint32(p[:4], maxBatchEntries)
		out = append(out, EncodeFrame(ftype, p))
	}
	return out
}

// TestDecodeIntoReusesDestination pins what reuse buys and what it may
// not cost: a destination decoded into again keeps its result slab and
// its version strings, a steady reply — every curve held, so only
// versions ride — costs nothing, points always land in a fresh slice
// with the held one untouched, and a fresh decode reserves exactly what
// it needs.
func TestDecodeIntoReusesDestination(t *testing.T) {
	msgs := canonicalMessages()
	var resp BatchScrapeResponse
	if err := decode(msgs[FrameBatchScrapeResp], &resp); err != nil {
		t.Fatal(err)
	}
	if cap(resp.Results) != len(resp.Results) {
		t.Errorf("fresh decode over-reserves: %d results in capacity %d", len(resp.Results), cap(resp.Results))
	}
	slab, curve := &resp.Results[0], resp.Results[0].Report.UtilityCurve
	kept := append([]cluster.CapPoint(nil), curve...)
	steady := heldCurves(FrameBatchScrapeResp)
	allocs := testing.AllocsPerRun(10, func() {
		if err := decode(steady, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding a steady reply into its own destination allocates %v objects", allocs)
	}
	if got := resp.Results[0].Report; &resp.Results[0] != slab || got.UtilityCurve != nil || got.CurveVer != curveVersion(kept) {
		t.Errorf("steady reply: slab moved %v, slot 0 holds %d points under version %#x", &resp.Results[0] != slab, len(got.UtilityCurve), got.CurveVer)
	}

	// The same points again are not compared with anything held: they
	// land in a fresh slice, as changed points do, and the held slice is
	// never written.
	for _, perf := range []float64{0, 0.125} {
		moved := resp.Results[0].Report
		moved.UtilityCurve = append([]cluster.CapPoint(nil), kept...)
		moved.UtilityCurve[1].Perf += perf
		moved.CurveVer = curveVersion(moved.UtilityCurve)
		if err := decode(wireBytes(&BatchScrapeResponse{Results: []ScrapeResult{{Server: 0, Report: moved}}}), &resp); err != nil {
			t.Fatal(err)
		}
		got := resp.Results[0].Report.UtilityCurve
		if !reflect.DeepEqual(resp.Results[0].Report, moved) || &got[0] == &curve[0] {
			t.Errorf("perf +%g: decoded %+v into the held slice %v, want %+v in a fresh one", perf, resp.Results[0].Report, &got[0] == &curve[0], moved)
		}
	}
	if !reflect.DeepEqual(curve, kept) {
		t.Errorf("decoding points wrote the held slice in place: %+v, was %+v", curve, kept)
	}

	var srep ShardReport
	if err := decode(msgs[FrameShardReportResp], &srep); err != nil {
		t.Fatal(err)
	}
	ver := srep.CurveVer
	steady = heldCurves(FrameShardReportResp)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := decode(steady, &srep); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 || srep.Curve != nil || srep.CurveVer != ver {
		t.Errorf("steady shard report: %v allocations, %d points under version %#x (want none under %#x)", allocs, len(srep.Curve), srep.CurveVer, ver)
	}
}

// TestPayloadStrictness: trailing bytes, non-0|1 bools, and lying
// counts inside a well-formed frame must be refused by decode.
func TestPayloadStrictness(t *testing.T) {
	// refused decodes p as m's kind of message and wants an error naming
	// want.
	refused := func(what string, m any, p []byte, want string) {
		t.Helper()
		if err := decode(p, m); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", what, err, want)
		}
	}
	grant := BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, LeaseIv: 1, IvS: 1, Entries: []GrantEntry{{CapW: 1}}}
	p := wireBytes(&grant)
	refused("trailing byte", new(BatchGrantRequest), append(p, 0), "trailing")
	refused("truncated entry", new(BatchGrantRequest), p[:len(p)-1], "exceeds payload")
	budget := wireBytes(&ShardBudgetRequest{V: ProtocolV, Epoch: 1, Seq: 1, CapW: 1, Iv: 1, LeaseIv: 1, IvS: 1})
	refused("truncated payload", new(ShardBudgetRequest), budget[:len(budget)-1], "truncated")

	// Bool byte 2 would decode true but re-encode as 1 — refused.
	scrape := wireBytes(&BatchScrapeRequest{V: ProtocolV, T: 5, HasT: true, Servers: []int{1}})
	scrape[8] = 2
	refused("bool byte 2", new(BatchScrapeRequest), scrape, "0|1")

	// A clock reading the hasT flag disowns is refused.
	refused("batch scrape time without hasT", new(BatchScrapeRequest),
		wireBytes(&BatchScrapeRequest{V: ProtocolV, T: 5, Servers: []int{1}}), "without hasT")

	// A curve count past the remaining payload must fail fast, not
	// allocate. A report is the last thing in a one-slot scrape reply, and
	// with an empty curve its count u32 sits just before the trailing
	// interval-counter u64. The second count is the one whose byte size
	// (×24) wraps a 32-bit int to exactly the 8 bytes left.
	for _, count := range []uint32{1 << 29, 0x0AAAAAAB} {
		rep := reportSlot(Report{V: ProtocolV, Server: 0, SoC: 0.5, Version: ""})
		binary.BigEndian.PutUint32(rep[len(rep)-12:len(rep)-8], count)
		refused("lying curve count", new(BatchScrapeResponse), rep, "curve count")
	}

	// Same for batch entry counts.
	batch := wireBytes(&BatchScrapeRequest{V: ProtocolV, HasT: true, T: 1, Servers: []int{0}})
	binary.BigEndian.PutUint32(batch[9:13], 1<<30)
	refused("lying batch count", new(BatchScrapeRequest), batch, "exceeds payload")

	// And for batch response counts, which size the result slice: a
	// count within maxBatchEntries that the remaining bytes cannot hold
	// is refused before anything is allocated.
	for _, lying := range lyingBatchResponses() {
		var before, after runtime.MemStats
		dst := newMessage(lying[3])
		runtime.ReadMemStats(&before)
		err := decode(lying[frameHeaderLen:], dst)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds payload") {
			t.Errorf("lying batch response count (frame %#02x): got %v", lying[3], err)
		}
		// The refusal costs an error value; maxBatchEntries result slots
		// would be hundreds of KiB.
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
			t.Errorf("lying batch response count (frame %#02x): refusal allocated %d bytes", lying[3], got)
		}
	}
	over := binary.BigEndian.AppendUint32(nil, maxBatchEntries+1)
	over = append(over, make([]byte, (maxBatchEntries+1)*minBatchResultBytes)...)
	refused("batch response count past the entry bound", new(BatchGrantResponse), over, "exceeds 4096")

	// The curve-meta flag over all-zero meta would re-encode without
	// the flag; the non-canonical form is refused.
	one := []cluster.CapPoint{{CapW: 25, Perf: 1, GridW: 25}}
	withCurve := reportSlot(Report{V: ProtocolV, Server: 0, SoC: 0.5, UtilityCurve: one, CurveVer: curveVersion(one)})
	// For a one-point meta-less curve the count u32 sits before the
	// version u64, 24 point bytes and the trailing u64. Rebuild with the
	// flag set and zero meta spliced in after the points.
	cntOff := len(withCurve) - 8 - 24 - 8 - 4
	flagged := append([]byte{}, withCurve[:cntOff]...)
	flagged = binary.BigEndian.AppendUint32(flagged, 1|curveVerFlag|curveMetaFlag)
	flagged = append(flagged, withCurve[cntOff+4:len(withCurve)-8]...)
	flagged = binary.BigEndian.AppendUint64(flagged, 0) // zero conf f64
	flagged = binary.BigEndian.AppendUint32(flagged, 0) // zero cells u32
	flagged = append(flagged, withCurve[len(withCurve)-8:]...)
	refused("flagged zero curve meta", new(BatchScrapeResponse), flagged, "zero meta")

	// And a report without meta — flag never set — still decodes.
	if err := decode(withCurve, new(BatchScrapeResponse)); err != nil {
		t.Errorf("meta-less report: %v", err)
	}

	// v5's curve versions: the flag over version 0 would re-encode
	// without it; points must hash to the version beside them; meta needs
	// points or a version; a shard report has no meta flag to set.
	zeroVer := append([]byte{}, withCurve...)
	clear(zeroVer[cntOff+4 : cntOff+12])
	refused("version flag over version 0", new(BatchScrapeResponse), zeroVer, "version flag set over version 0")
	refused("points under another version", new(BatchScrapeResponse),
		reportSlot(Report{V: ProtocolV, SoC: 0.5, UtilityCurve: one, CurveVer: 7}), "hash to")
	refused("points without a version", new(BatchScrapeResponse),
		reportSlot(Report{V: ProtocolV, SoC: 0.5, UtilityCurve: one}), "hash to")
	refused("curve meta without points or version", new(BatchScrapeResponse),
		reportSlot(Report{V: ProtocolV, SoC: 0.5, CurveConf: 0.5, CurveCells: 3}), "without a curve")
	if err := decode(reportSlot(Report{V: ProtocolV, SoC: 0.5, CurveVer: 7, CurveConf: 0.5, CurveCells: 3}), new(BatchScrapeResponse)); err != nil {
		t.Errorf("curve meta beside a held version: %v", err)
	}
	shard := wireBytes(&ShardReport{V: ProtocolV, Curve: one, CurveVer: curveVersion(one)})
	shardCnt := len(shard) - 24 - 8 - 4 - 24 // the count word, before version, points and the three trailing u64s
	binary.BigEndian.PutUint32(shard[shardCnt:], 1|curveVerFlag|curveMetaFlag)
	refused("shard report with the meta flag", new(ShardReport), shard, "shard curve count")
	refused("held list shorter than the servers", new(BatchScrapeRequest),
		wireBytes(&BatchScrapeRequest{V: ProtocolV, Servers: []int{0, 1}, Held: []uint64{7}}), "holds 1 curve versions for 2 servers")
	refused("all-zero held list", new(BatchScrapeRequest),
		wireBytes(&BatchScrapeRequest{V: ProtocolV, Servers: []int{0, 1}, Held: []uint64{0, 0}}), "not all 0")

	// Semantic validation runs behind structural decode: epoch 0 is a
	// clean payload but an invalid request.
	refused("epoch 0 grant", new(BatchGrantRequest), wireBytes(with(&grant, func(r *BatchGrantRequest) { r.Epoch = 0 })), "epoch 0")

	// Every grant carries a whole lease clock: a zero mint interval,
	// lease length, or interval length would mint a budget that never
	// lapses, and the decoder refuses it.
	for name, mut := range map[string]func(*BatchGrantRequest){
		"leaseIv 0": func(r *BatchGrantRequest) { r.LeaseIv = 0 },
		"iv 0":      func(r *BatchGrantRequest) { r.Iv = 0 },
		"ivS 0":     func(r *BatchGrantRequest) { r.IvS = 0 },
		"all zero":  func(r *BatchGrantRequest) { r.Iv, r.LeaseIv, r.IvS = 0, 0, 0 },
	} {
		refused("batch grant with "+name, new(BatchGrantRequest), wireBytes(with(&grant, mut)), "lease clock")
	}
	refused("shard budget with leaseIv 0", new(ShardBudgetRequest),
		wireBytes(&ShardBudgetRequest{V: ProtocolV, Epoch: 1, Seq: 1, CapW: 1, Iv: 1, IvS: 300}), "lease clock")
}

// TestCurveCellsFitTheWire: a report's observed-cell count crosses the
// wire as a u32, so Validate refuses a count the u32 would turn into a
// different number, and the largest it accepts arrives intact.
func TestCurveCellsFitTheWire(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("a 32-bit int cannot hold a count past the u32")
	}
	one := []cluster.CapPoint{{CapW: 25, Perf: 1, GridW: 25}}
	widest := uint64(math.MaxUint32)
	rep := Report{V: ProtocolV, SoC: 0.5, UtilityCurve: one, CurveVer: curveVersion(one), CurveConf: 0.5, CurveCells: int(widest)}
	var got BatchScrapeResponse
	if err := decode(reportSlot(rep), &got); err != nil || got.Results[0].Report.CurveCells != rep.CurveCells {
		t.Fatalf("%d cells: decoded %+v, %v", rep.CurveCells, got.Results, err)
	}
	for _, cells := range []uint64{widest + 1, widest + 5, 1 << 40} {
		rep.CurveCells = int(cells)
		if err := rep.Validate(); err == nil || !strings.Contains(err.Error(), "curveCells") {
			t.Errorf("%d cells would cross the wire as %d: Validate says %v", cells, uint32(cells), err)
		}
	}
}

// reportSlot is the payload of a scrape reply whose one slot carries r:
// the report is the payload's tail.
func reportSlot(r Report) []byte {
	return wireBytes(&BatchScrapeResponse{V: ProtocolV, Results: []ScrapeResult{{Server: r.Server, Report: r}}})
}

// TestBatchRequestBound: a batch request is held to the request bound,
// not the reply one, and the header alone is refused — a peer's lying
// length must not size a conn's buffer. A full batch grant is about
// 70 KB; a 2 MiB claim fits the 16 MiB reply bound but no request.
func TestBatchRequestBound(t *testing.T) {
	claim := func(ftype byte, n uint32) []byte {
		hdr := finishFrame(appendFrameHeader(nil), ftype)
		binary.BigEndian.PutUint32(hdr[4:8], n)
		return hdr
	}
	for _, ftype := range []byte{FrameBatchGrantReq, FrameBatchScrapeReq} {
		buf := make([]byte, minFrameBuf)
		_, _, err := readFrame(bytes.NewReader(claim(ftype, 2<<20)), &buf)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("frame %#02x claiming 2 MiB: readFrame says %v, want a refusal", ftype, err)
		}
		if cap(buf) != minFrameBuf {
			t.Errorf("frame %#02x claiming 2 MiB grew the conn's buffer to %d bytes", ftype, cap(buf))
		}
		if _, _, _, err := DecodeFrame(claim(ftype, 2<<20)); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("frame %#02x claiming 2 MiB: DecodeFrame says %v", ftype, err)
		}
	}
	// The largest legal requests fit with room to spare.
	full := BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, LeaseIv: 1, IvS: 1, Entries: make([]GrantEntry, maxBatchEntries)}
	if n := len(wireBytes(&full)); n > maxBodyBytes/8 {
		t.Errorf("a full batch grant is %d bytes, close to the %d-byte request bound", n, maxBodyBytes)
	}
	// Replies keep the batch bound: the header of a 2 MiB scrape reply
	// passes, and only the missing payload stops it.
	if _, _, _, err := DecodeFrame(claim(FrameBatchScrapeResp, 2<<20)); err == nil || !strings.Contains(err.Error(), "payload truncated") {
		t.Errorf("2 MiB scrape reply header: %v, want it past the header check", err)
	}

	// A listener drops the conn on the header, before reading or
	// buffering a payload byte.
	a, err := NewAgent(AgentConfig{ID: 0, Backend: &fakeBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	raw := dialRaw(t, serveEndpoints(t, map[int]CtrlEndpoint{0: a}))
	if _, err := raw.Write(claim(FrameBatchGrantReq, 2<<20)); err != nil {
		t.Fatal(err)
	}
	wantDropped(t, raw, "2 MiB grant header")
}

// BenchmarkCodecBatchReply is the codec's own cost outside psperf: a
// 1 000-slot batch reply encoded into a reused buffer and decoded into a
// warm destination. scrape-curves ships every curve (a first interval),
// scrape-held none of them (a steady one: versions only).
func BenchmarkCodecBatchReply(b *testing.B) {
	curve := make([]cluster.CapPoint, 9)
	for i := range curve {
		curve[i] = cluster.CapPoint{CapW: 25 + 10*float64(i), Perf: float64(i) / 8, GridW: 24 + 9*float64(i)}
	}
	scrape := func(curve []cluster.CapPoint, ver uint64) *BatchScrapeResponse {
		resp := &BatchScrapeResponse{V: ProtocolV, Results: make([]ScrapeResult, 1000)}
		for i := range resp.Results {
			resp.Results[i] = ScrapeResult{Server: i, Report: Report{V: ProtocolV, Server: i, Epoch: 1, Seq: 9, CapW: 80, PerfN: 0.9,
				GridW: 75.5, SoC: 0.5, IdleFloorW: 25, NameplateW: 120, Version: "v1.2.3", UtilityCurve: curve, CurveVer: ver, Iv: 9}}
		}
		return resp
	}
	grant := &BatchGrantResponse{V: ProtocolV, Results: make([]GrantResult, 1000)}
	for i := range grant.Results {
		grant.Results[i] = GrantResult{Server: i, Renewed: i%2 == 0,
			Resp: AssignResponse{V: ProtocolV, Server: i, Epoch: 1, Seq: 9, Applied: true, CapW: 80, PerfN: 0.9, GridW: 75.5, SoC: 0.5, Iv: 9}}
	}
	for _, bc := range []struct {
		name      string
		src, warm any
	}{
		{"scrape", scrape(nil, 0), new(BatchScrapeResponse)},
		{"scrape-curves", scrape(curve, curveVersion(curve)), new(BatchScrapeResponse)},
		{"scrape-held", scrape(nil, curveVersion(curve)), new(BatchScrapeResponse)},
		{"grant", grant, new(BatchGrantResponse)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf, _ := encode(nil, bc.src)
			if err := decode(buf, bc.warm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = encode(buf[:0], bc.src)
				if err := decode(buf, bc.warm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
