package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"powerstruggle/internal/cluster"
)

// canonicalMessages returns one representative per frame type, each the
// encoded payload plus its type — the round-trip and fuzz corpora share
// them.
func canonicalMessages() map[byte][]byte {
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
	// learned is a live daemon's report: the curve came from the online
	// estimator, so the count u32's meta flag is set and confidence +
	// observed cells trail the points.
	learned := rep2(rep, 5)
	learned.CurveConf = 0.75
	learned.CurveCells = 9
	term := WireTerm{Epoch: 4, Leader: "coord-a", ExpiresUnixNano: 1700000000000000000}
	return map[byte][]byte{
		FrameScrapeReq:  appendScrapeReq(nil, scrapeRequest{3, 1200.5, true}),
		FrameReportResp: appendReportPayload(nil, rep),
		FrameAssignReq: appendAssignReq(nil, AssignRequest{
			V: ProtocolV, Epoch: 2, Seq: 9, Server: 3, T: 1200.5, CapW: 85.5,
			Iv: 42, LeaseIv: 3, IvS: 1.5,
		}),
		FrameAssignResp: appendAssignRespPayload(nil, AssignResponse{
			V: ProtocolV, Server: 3, Epoch: 2, Seq: 9, Applied: true,
			CapW: 85.5, PerfN: 0.92, GridW: 80.25, SoC: 0.5, Fenced: false, SafeMode: false,
			Iv: 42,
		}),
		FrameLeaseReq: appendLeaseReq(nil, LeaseRequest{
			V: ProtocolV, Epoch: 2, Server: 3, T: 1200.5,
			Iv: 42, LeaseIv: 3, IvS: 1.5,
		}),
		FrameLeaseResp: appendLeaseRespPayload(nil, LeaseResponse{
			V: ProtocolV, Epoch: 2, Server: 3, CapW: 85.5, ExpiresIv: 45, Fenced: false,
			Iv: 42,
		}),
		FrameRegisterReq: appendRegisterReq(nil, RegisterRequest{
			V: ProtocolV, Server: 3, URL: "tcp://10.0.0.7:9000", NameplateW: 120,
		}),
		FrameRegisterResp: appendRegisterRespPayload(nil, RegisterResponse{
			V: ProtocolV, Server: 3, Accepted: true, Epoch: 2, Leader: true, LeaderID: "coord-a",
		}),
		FrameVoteReq: appendVoteReq(nil, VoteRequest{
			V: ProtocolV, Phase: VoteAccept, Ballot: 7, Term: &term,
		}),
		FrameVoteResp: appendVoteRespPayload(nil, VoteResponse{
			V: ProtocolV, Granted: true, Promise: 7, AcceptedBallot: 7, Term: &term,
		}),
		FrameLeaderResp: appendLeaderStatusPayload(nil, LeaderStatus{
			V: ProtocolV, ID: "coord-a", LeaderID: "coord-a", Epoch: 2, Leader: true, Failovers: 1,
		}),
		FrameBatchScrapeReq: appendBatchScrapeReq(nil, BatchScrapeRequest{
			V: ProtocolV, T: 1200.5, HasT: true, Servers: []int{0, 1, 2},
		}),
		FrameBatchScrapeResp: appendBatchScrapeRespPayload(nil, BatchScrapeResponse{
			V: ProtocolV, Results: []ScrapeResult{
				{Server: 0, Report: rep2(rep, 0)},
				{Server: 1, Err: "no agent 1 behind this listener"},
				{Server: 5, Report: learned},
			},
		}),
		FrameBatchGrantReq: appendBatchGrantReq(nil, BatchGrantRequest{
			V: ProtocolV, Epoch: 2, Seq: 9, T: 1200.5,
			Iv: 42, LeaseIv: 3, IvS: 1.5,
			Entries: []GrantEntry{
				{Server: 0, CapW: 80, Renew: true},
				{Server: 1, CapW: 40.5, Renew: false},
			},
		}),
		FrameBatchGrantResp: appendBatchGrantRespPayload(nil, BatchGrantResponse{
			V: ProtocolV, Results: []GrantResult{
				{Server: 0, Renewed: true, Resp: AssignResponse{V: ProtocolV, Server: 0, Epoch: 2, CapW: 80, Iv: 42}},
				{Server: 1, Err: "lost it"},
			},
		}),
		FrameShardReportReq: appendShardReportReq(nil, ShardReportRequest{
			V: ProtocolV, Shard: 2, T: 1200.5, HasT: true, Iv: 42,
		}),
		FrameShardReportResp: appendShardReportPayload(nil, ShardReport{
			V: ProtocolV, Shard: 2, Epoch: 3, Seq: 11, T: 1200.5, Leading: true,
			Agents: 125, FloorW: 5625, DemandW: 7500, UsedW: 6200.5, CapW: 6450,
			BudgetW: 6500, Starved: false,
			Curve: []cluster.CapPoint{
				{CapW: 5625, Perf: 0, GridW: 5625},
				{CapW: 6500, Perf: 61.5, GridW: 6400},
				{CapW: 7500, Perf: 125, GridW: 7400},
			},
			GEpoch: 3, GSeq: 11, GIv: 42,
		}),
		FrameShardBudgetReq: appendShardBudgetReq(nil, ShardBudgetRequest{
			V: ProtocolV, Epoch: 2, Seq: 9, Shard: 2, T: 1200.5, CapW: 6500,
			Iv: 42, LeaseIv: 3, IvS: 1.5,
		}),
		FrameShardBudgetResp: appendShardBudgetRespPayload(nil, ShardBudgetResponse{
			V: ProtocolV, Shard: 2, Epoch: 2, Seq: 9, Applied: true, CapW: 6500, Iv: 42,
		}),
		FrameLeaderReq: nil,
		FrameError:     appendErrPayload(nil, "agent 3: no such server"),
	}
}

func rep2(r Report, server int) Report {
	r.Server = server
	return r
}

// reencodePayload decodes payload as ftype's message and re-encodes it;
// ok is false when ftype has no decoder (never: all types covered) and
// err is the decode error.
func reencodePayload(ftype byte, payload []byte) ([]byte, error) {
	switch ftype {
	case FrameScrapeReq:
		req, err := decodeScrapeReq(payload)
		if err != nil {
			return nil, err
		}
		return appendScrapeReq(nil, req), nil
	case FrameReportResp:
		rep, err := decodeReportPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendReportPayload(nil, rep), nil
	case FrameAssignReq:
		req, err := decodeAssignReqPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendAssignReq(nil, req), nil
	case FrameAssignResp:
		resp, err := decodeAssignRespPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendAssignRespPayload(nil, resp), nil
	case FrameLeaseReq:
		req, err := decodeLeaseReqPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendLeaseReq(nil, req), nil
	case FrameLeaseResp:
		resp, err := decodeLeaseRespPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendLeaseRespPayload(nil, resp), nil
	case FrameRegisterReq:
		req, err := decodeRegisterReqPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendRegisterReq(nil, req), nil
	case FrameRegisterResp:
		resp, err := decodeRegisterRespPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendRegisterRespPayload(nil, resp), nil
	case FrameVoteReq:
		req, err := decodeVoteReqPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendVoteReq(nil, req), nil
	case FrameVoteResp:
		resp, err := decodeVoteRespPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendVoteRespPayload(nil, resp), nil
	case FrameLeaderReq:
		if len(payload) != 0 {
			return nil, errTrailing
		}
		return nil, nil
	case FrameLeaderResp:
		st, err := decodeLeaderStatusPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendLeaderStatusPayload(nil, st), nil
	case FrameBatchScrapeReq:
		req, err := decodeBatchScrapeReqPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendBatchScrapeReq(nil, req), nil
	case FrameBatchScrapeResp:
		resp, err := decodeBatchScrapeRespPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendBatchScrapeRespPayload(nil, resp), nil
	case FrameBatchGrantReq:
		req, err := decodeBatchGrantReqPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendBatchGrantReq(nil, req), nil
	case FrameBatchGrantResp:
		resp, err := decodeBatchGrantRespPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendBatchGrantRespPayload(nil, resp), nil
	case FrameShardReportReq:
		req, err := decodeShardReportReqPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendShardReportReq(nil, req), nil
	case FrameShardReportResp:
		rep, err := decodeShardReportPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendShardReportPayload(nil, rep), nil
	case FrameShardBudgetReq:
		req, err := decodeShardBudgetReqPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendShardBudgetReq(nil, req), nil
	case FrameShardBudgetResp:
		resp, err := decodeShardBudgetRespPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendShardBudgetRespPayload(nil, resp), nil
	case FrameError:
		msg, err := decodeErrPayload(payload)
		if err != nil {
			return nil, err
		}
		return appendErrPayload(nil, msg), nil
	}
	return nil, errUnknownFrame
}

var (
	errTrailing     = &codecTestErr{"trailing payload"}
	errUnknownFrame = &codecTestErr{"unknown frame type"}
)

type codecTestErr struct{ s string }

func (e *codecTestErr) Error() string { return e.s }

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
		re, err := reencodePayload(ftype, gotPayload)
		if err != nil {
			t.Fatalf("frame %#02x payload decode: %v", ftype, err)
		}
		if !bytes.Equal(re, payload) {
			t.Fatalf("frame %#02x re-encoded %d bytes != original %d", ftype, len(re), len(payload))
		}
		// The server's stream writer emits the same bytes without
		// building the frame in memory first.
		var streamed bytes.Buffer
		if err := writeFrame(&streamed, ftype, payload); err != nil || !bytes.Equal(streamed.Bytes(), frame) {
			t.Fatalf("frame %#02x: writeFrame wrote %d bytes (err %v) != EncodeFrame's %d", ftype, streamed.Len(), err, len(frame))
		}
	}
}

// TestTypedRoundTrips checks decoded values match the originals
// field-for-field (the byte identity above could in principle hide a
// swap of two same-width fields).
func TestTypedRoundTrips(t *testing.T) {
	rep := Report{
		V: ProtocolV, Server: 5, Epoch: 3, Seq: 21, CapW: 60, PerfN: 0.7,
		GridW: 58, SoC: 0.25, Fenced: true, IdleFloorW: 25, NameplateW: 120,
		Version:      "dev",
		UtilityCurve: []cluster.CapPoint{{CapW: 25, Perf: 0, GridW: 25}, {CapW: 120, Perf: 1, GridW: 110}},
	}
	got, err := decodeReportPayload(appendReportPayload(nil, rep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("report round trip:\n got %+v\nwant %+v", got, rep)
	}

	// A learned curve's meta fields survive the flag-bit encoding.
	rep.CurveConf = 0.375
	rep.CurveCells = 3
	got, err = decodeReportPayload(appendReportPayload(nil, rep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("learned report round trip:\n got %+v\nwant %+v", got, rep)
	}

	areq := AssignRequest{V: ProtocolV, Epoch: 1, Seq: 4, Server: 0, T: 300, CapW: 75,
		Iv: 7, LeaseIv: 2, IvS: 0.5}
	gotA, err := decodeAssignReqPayload(appendAssignReq(nil, areq))
	if err != nil {
		t.Fatal(err)
	}
	if gotA != areq {
		t.Fatalf("assign round trip: got %+v want %+v", gotA, areq)
	}

	vreq := VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 3}
	gotV, err := decodeVoteReqPayload(appendVoteReq(nil, vreq))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotV, vreq) {
		t.Fatalf("vote round trip: got %+v want %+v", gotV, vreq)
	}

	srep := ShardReport{
		V: ProtocolV, Shard: 4, Epoch: 2, Seq: 33, T: 900, Leading: true,
		Agents: 16, FloorW: 720, DemandW: 960, UsedW: 801.5, CapW: 850, BudgetW: 860,
		Starved: true,
		Curve:   []cluster.CapPoint{{CapW: 720, Perf: 0, GridW: 720}, {CapW: 960, Perf: 16, GridW: 950}},
		GEpoch:  1, GSeq: 8, GIv: 7,
	}
	gotS, err := decodeShardReportPayload(appendShardReportPayload(nil, srep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotS, srep) {
		t.Fatalf("shard report round trip:\n got %+v\nwant %+v", gotS, srep)
	}

	sbud := ShardBudgetRequest{V: ProtocolV, Epoch: 3, Seq: 5, Shard: 1, T: 600, CapW: 512.5,
		Iv: 7, LeaseIv: 2, IvS: 0.5}
	gotSB, err := decodeShardBudgetReqPayload(appendShardBudgetReq(nil, sbud))
	if err != nil {
		t.Fatal(err)
	}
	if gotSB != sbud {
		t.Fatalf("shard budget round trip: got %+v want %+v", gotSB, sbud)
	}

	breq := BatchGrantRequest{
		V: ProtocolV, Epoch: 2, Seq: 7, T: 600,
		Iv: 7, LeaseIv: 2, IvS: 0.5,
		Entries: []GrantEntry{{Server: 0, CapW: 50, Renew: true}, {Server: 9, CapW: 0}},
	}
	gotB, err := decodeBatchGrantReqPayload(appendBatchGrantReq(nil, breq))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, breq) {
		t.Fatalf("batch grant round trip: got %+v want %+v", gotB, breq)
	}
}

// TestDecodeFrameErrors is the malformed-frame table: truncation,
// garbage, oversize, and foreign versions must all be refused.
func TestDecodeFrameErrors(t *testing.T) {
	ok := EncodeFrame(FrameLeaseReq, appendLeaseReq(nil, LeaseRequest{
		V: ProtocolV, Epoch: 1, Server: 0, T: 0, Iv: 1, LeaseIv: 1, IvS: 1,
	}))
	oversize := make([]byte, frameHeaderLen)
	oversize[0], oversize[1], oversize[2], oversize[3] = frameMagic0, frameMagic1, ProtocolV, FrameAssignReq
	binary.BigEndian.PutUint32(oversize[4:8], maxBodyBytes+1)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short header", ok[:frameHeaderLen-1], "truncated"},
		{"bad magic", append([]byte("XX"), ok[2:]...), "bad frame magic"},
		{"garbage", []byte("GET /ctrl/report HTTP/1.1\r\n"), "bad frame magic"},
		{"foreign version", mutate(ok, 2, ProtocolV+1), "protocol v4"},
		{"zero version", mutate(ok, 2, 0), "protocol v0"},
		{"unknown type 0x00", mutate(ok, 3, 0x00), "unknown frame type"},
		{"unknown type 0x15", mutate(ok, 3, 0x15), "unknown frame type"},
		{"unknown type 0x80", mutate(ok, 3, 0x80), "unknown frame type"},
		{"oversize payload", oversize, "exceeds"},
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

// TestPayloadStrictness: trailing bytes, non-0|1 bools, and lying
// counts inside a well-formed frame must be refused by the message
// decoders.
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

// The server sizes a batch response's payload buffer from its results;
// the size functions must agree with the encoders to the byte, or the
// buffer silently grows (or over-reserves) on every interval.
func TestBatchResponseSizes(t *testing.T) {
	msgs := canonicalMessages()
	scrape, err := decodeBatchScrapeRespPayload(msgs[FrameBatchScrapeResp])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := batchScrapeRespSize(scrape), len(msgs[FrameBatchScrapeResp]); got != want {
		t.Errorf("batchScrapeRespSize = %d, encoder wrote %d bytes", got, want)
	}
	grant, err := decodeBatchGrantRespPayload(msgs[FrameBatchGrantResp])
	if err != nil {
		t.Fatal(err)
	}
	if got, want := batchGrantRespSize(grant), len(msgs[FrameBatchGrantResp]); got != want {
		t.Errorf("batchGrantRespSize = %d, encoder wrote %d bytes", got, want)
	}
	if cap(scrape.Results) != len(scrape.Results) || cap(grant.Results) != len(grant.Results) {
		t.Errorf("decoded result slices over-reserve: scrape %d/%d, grant %d/%d",
			len(scrape.Results), cap(scrape.Results), len(grant.Results), cap(grant.Results))
	}
}

func TestPayloadStrictness(t *testing.T) {
	lease := appendLeaseReq(nil, LeaseRequest{V: ProtocolV, Epoch: 1, Server: 0, T: 0, Iv: 1, LeaseIv: 1, IvS: 1})
	if _, err := decodeLeaseReqPayload(append(lease, 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: got %v", err)
	}
	if _, err := decodeLeaseReqPayload(lease[:len(lease)-1]); err == nil {
		t.Error("truncated payload decoded")
	}

	// Bool byte 2 would decode true but re-encode as 1 — refused.
	scrape := appendScrapeReq(nil, scrapeRequest{1, 5, true})
	scrape[8] = 2
	if _, err := decodeScrapeReq(scrape); err == nil || !strings.Contains(err.Error(), "0|1") {
		t.Errorf("bool byte 2: got %v", err)
	}

	// A clock reading the hasT flag disowns is refused by the unary
	// decoder exactly as BatchScrapeRequest.Validate refuses it.
	if _, err := decodeScrapeReq(appendScrapeReq(nil, scrapeRequest{1, 5, false})); err == nil || !strings.Contains(err.Error(), "without hasT") {
		t.Errorf("unary scrape time without hasT: got %v", err)
	}
	if _, err := decodeBatchScrapeReqPayload(appendBatchScrapeReq(nil, BatchScrapeRequest{V: ProtocolV, T: 5, Servers: []int{1}})); err == nil || !strings.Contains(err.Error(), "without hasT") {
		t.Errorf("batch scrape time without hasT: got %v", err)
	}

	// A curve count past the remaining payload must fail fast, not
	// allocate. With an empty curve the count u32 sits just before the
	// trailing interval-counter u64.
	rep := appendReportPayload(nil, Report{V: ProtocolV, Server: 0, SoC: 0.5, Version: ""})
	binary.BigEndian.PutUint32(rep[len(rep)-12:len(rep)-8], 1<<30)
	if _, err := decodeReportPayload(rep); err == nil || !strings.Contains(err.Error(), "curve count") {
		t.Errorf("lying curve count: got %v", err)
	}

	// Same for batch entry counts.
	batch := appendBatchScrapeReq(nil, BatchScrapeRequest{V: ProtocolV, HasT: true, T: 1, Servers: []int{0}})
	binary.BigEndian.PutUint32(batch[9:13], 1<<30)
	if _, err := decodeBatchScrapeReqPayload(batch); err == nil || !strings.Contains(err.Error(), "exceeds payload") {
		t.Errorf("lying batch count: got %v", err)
	}

	// And for batch response counts, which size the result slice: a
	// count within maxBatchEntries that the remaining bytes cannot hold
	// is refused before anything is allocated.
	for _, lying := range lyingBatchResponses() {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if lying[3] == FrameBatchScrapeResp {
			_, err = decodeBatchScrapeRespPayload(lying[frameHeaderLen:])
		} else {
			_, err = decodeBatchGrantRespPayload(lying[frameHeaderLen:])
		}
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

	// The curve-meta flag over all-zero meta would re-encode without
	// the flag; the non-canonical form is refused.
	withCurve := appendReportPayload(nil, Report{
		V: ProtocolV, Server: 0, SoC: 0.5,
		UtilityCurve: []cluster.CapPoint{{CapW: 25, Perf: 1, GridW: 25}},
	})
	// Count u32 sits 12 bytes (f64 conf + u32 cells... absent here) —
	// for a one-point meta-less curve it sits before 24 point bytes and
	// the trailing u64. Rebuild with the flag set and zero meta spliced
	// in after the points.
	cntOff := len(withCurve) - 8 - 24 - 4
	flagged := append([]byte{}, withCurve[:cntOff]...)
	flagged = binary.BigEndian.AppendUint32(flagged, 1|curveMetaFlag)
	flagged = append(flagged, withCurve[cntOff+4:len(withCurve)-8]...)
	flagged = binary.BigEndian.AppendUint64(flagged, 0) // zero conf f64
	flagged = binary.BigEndian.AppendUint32(flagged, 0) // zero cells u32
	flagged = append(flagged, withCurve[len(withCurve)-8:]...)
	if _, err := decodeReportPayload(flagged); err == nil || !strings.Contains(err.Error(), "zero meta") {
		t.Errorf("flagged zero curve meta: got %v", err)
	}

	// And a legacy frame — flag never set — still decodes.
	if _, err := decodeReportPayload(withCurve); err != nil {
		t.Errorf("legacy meta-less report: %v", err)
	}

	// Semantic validation runs behind structural decode: epoch 0 is a
	// clean payload but an invalid request.
	good := AssignRequest{V: ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0, CapW: 1, Iv: 1, LeaseIv: 1, IvS: 300}
	bad := good
	bad.Epoch = 0
	if _, err := decodeAssignReqPayload(appendAssignReq(nil, bad)); err == nil || !strings.Contains(err.Error(), "epoch 0") {
		t.Errorf("epoch 0 assign: got %v", err)
	}

	// Every grant carries a whole lease clock: a zero mint interval,
	// lease length, or interval length would mint a budget that never
	// lapses, and the decoder refuses it.
	for name, mut := range map[string]func(*AssignRequest){
		"leaseIv 0": func(r *AssignRequest) { r.LeaseIv = 0 },
		"iv 0":      func(r *AssignRequest) { r.Iv = 0 },
		"ivS 0":     func(r *AssignRequest) { r.IvS = 0 },
		"all zero":  func(r *AssignRequest) { r.Iv, r.LeaseIv, r.IvS = 0, 0, 0 },
	} {
		bad := good
		mut(&bad)
		if _, err := decodeAssignReqPayload(appendAssignReq(nil, bad)); err == nil || !strings.Contains(err.Error(), "lease clock") {
			t.Errorf("binary assign with %s: got %v", name, err)
		}
	}
	if _, err := decodeLeaseReqPayload(appendLeaseReq(nil, LeaseRequest{V: ProtocolV, Epoch: 1, Iv: 1, IvS: 300})); err == nil || !strings.Contains(err.Error(), "lease clock") {
		t.Errorf("renewal with leaseIv 0: got %v", err)
	}
	if _, err := decodeShardBudgetReqPayload(appendShardBudgetReq(nil, ShardBudgetRequest{V: ProtocolV, Epoch: 1, Seq: 1, CapW: 1, Iv: 1, IvS: 300})); err == nil || !strings.Contains(err.Error(), "lease clock") {
		t.Errorf("shard budget with leaseIv 0: got %v", err)
	}
	if _, err := decodeBatchGrantReqPayload(appendBatchGrantReq(nil, BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, IvS: 300,
		Entries: []GrantEntry{{Server: 0, CapW: 1}}})); err == nil || !strings.Contains(err.Error(), "lease clock") {
		t.Errorf("batch grant with leaseIv 0: got %v", err)
	}
}
