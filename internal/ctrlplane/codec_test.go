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
		FrameReportResp: appendReportPayload(nil, &rep),
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

// The whole-message batch response encoders: the server never builds a
// response value (it encodes each slot as the agent answers), so these
// exist for the corpora, on the same slot encoders.
func appendBatchScrapeRespPayload(b []byte, resp BatchScrapeResponse) []byte {
	w := wbuf{b: b}
	w.u32(uint32(len(resp.Results)))
	for i := range resp.Results {
		res := &resp.Results[i]
		putScrapeResult(&w, res.Server, res.Err, &res.Report)
	}
	return w.b
}

func appendBatchGrantRespPayload(b []byte, resp BatchGrantResponse) []byte {
	w := wbuf{b: b}
	w.u32(uint32(len(resp.Results)))
	for _, res := range resp.Results {
		putGrantResult(&w, res.Server, res.Err, res.Renewed, res.Resp)
	}
	return w.b
}

// fresh decodes p into a zero destination.
func fresh[T any](dec func([]byte, *T) error, p []byte) (T, error) {
	var v T
	err := dec(p, &v)
	return v, err
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

func dirtyAssignResp() AssignResponse {
	return AssignResponse{V: 99, Server: 77, Epoch: 88, Seq: 99, Applied: true, CapW: 11, PerfN: 12,
		GridW: 13, SoC: 0.9, Fenced: true, SafeMode: true, Iv: 55}
}

func dirtyBatchScrapeResp() BatchScrapeResponse {
	resp := BatchScrapeResponse{V: 99}
	for i := 0; i < 7; i++ {
		resp.Results = append(resp.Results, ScrapeResult{Server: 70 + i, Err: "stale error", Report: dirtyReport()})
	}
	return resp
}

func dirtyBatchGrantResp() BatchGrantResponse {
	resp := BatchGrantResponse{V: 99}
	for i := 0; i < 7; i++ {
		resp.Results = append(resp.Results, GrantResult{Server: 70 + i, Err: "stale error", Renewed: true, Resp: dirtyAssignResp()})
	}
	return resp
}

func dirtyBatchScrapeReq() BatchScrapeRequest {
	return BatchScrapeRequest{V: 99, T: 77, HasT: true, Servers: []int{9, 8, 7, 6, 5, 4, 3, 2, 1}}
}

func dirtyBatchGrantReq() BatchGrantRequest {
	req := BatchGrantRequest{V: 99, Epoch: 88, Seq: 99, T: 77, Iv: 55, LeaseIv: 66, IvS: 7}
	for i := 0; i < 9; i++ {
		req.Entries = append(req.Entries, GrantEntry{Server: 70 + i, CapW: 11, Renew: true})
	}
	return req
}

func dirtyShardReport() ShardReport {
	return ShardReport{V: 99, Shard: 77, Epoch: 88, Seq: 99, T: 11, Leading: true, Agents: 12, FloorW: 13,
		DemandW: 14, UsedW: 15, CapW: 16, BudgetW: 17, Starved: true, Curve: dirtyCurve(), GEpoch: 18, GSeq: 19, GIv: 20}
}

// decodeReused is the decode-into equivalence check every corpus and
// fuzz input runs through: p decoded into a zero destination, into a
// dirty one, and into one already holding p's own message must agree —
// the same rejection, or the same value down to fields the wire does not
// carry (a slot's report beside its error) and the same re-encoding — so
// reusing a destination can never leak a stale slot. It returns the
// fresh decode.
func decodeReused[T any](t testing.TB, dec func([]byte, *T) error, enc func([]byte, T) []byte, dirty T, p []byte) (T, error) {
	t.Helper()
	got, err := fresh(dec, p)
	derr := dec(p, &dirty)
	if (err == nil) != (derr == nil) || (err != nil && err.Error() != derr.Error()) {
		t.Fatalf("%T: fresh decode says %v, dirty destination says %v", got, err, derr)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	held := got // shares got's slices: the destination already holds p
	if err := dec(p, &held); err != nil {
		t.Fatalf("%T: decode into a destination holding the same message: %v", got, err)
	}
	for name, reused := range map[string]T{"dirty": dirty, "held": held} {
		if !bytes.Equal(enc(nil, reused), enc(nil, got)) {
			t.Fatalf("%T: %s destination re-encodes differently:\n got %+v\nwant %+v", got, name, reused, got)
		}
		// NaNs (legal in an unvalidated acknowledgement) defeat DeepEqual
		// on any value, the fresh one included.
		if reflect.DeepEqual(got, got) && !reflect.DeepEqual(reused, got) {
			t.Fatalf("%T: %s destination kept stale state:\n got %+v\nwant %+v", got, name, reused, got)
		}
	}
	return got, nil
}

func encReport(b []byte, rep Report) []byte { return appendReportPayload(b, &rep) }

// reencodePayload decodes payload as ftype's message and re-encodes it;
// err is the decode error. The messages that decode into a reusable
// destination take the decodeReused check on the way.
func reencodePayload(t testing.TB, ftype byte, payload []byte) ([]byte, error) {
	t.Helper()
	switch ftype {
	case FrameScrapeReq:
		req, err := decodeScrapeReq(payload)
		if err != nil {
			return nil, err
		}
		return appendScrapeReq(nil, req), nil
	case FrameReportResp:
		rep, err := decodeReused(t, decodeReportPayload, encReport, dirtyReport(), payload)
		if err != nil {
			return nil, err
		}
		return encReport(nil, rep), nil
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
		req, err := decodeReused(t, decodeBatchScrapeReqPayload, appendBatchScrapeReq, dirtyBatchScrapeReq(), payload)
		if err != nil {
			return nil, err
		}
		return appendBatchScrapeReq(nil, req), nil
	case FrameBatchScrapeResp:
		resp, err := decodeReused(t, decodeBatchScrapeRespPayload, appendBatchScrapeRespPayload, dirtyBatchScrapeResp(), payload)
		if err != nil {
			return nil, err
		}
		return appendBatchScrapeRespPayload(nil, resp), nil
	case FrameBatchGrantReq:
		req, err := decodeReused(t, decodeBatchGrantReqPayload, appendBatchGrantReq, dirtyBatchGrantReq(), payload)
		if err != nil {
			return nil, err
		}
		return appendBatchGrantReq(nil, req), nil
	case FrameBatchGrantResp:
		resp, err := decodeReused(t, decodeBatchGrantRespPayload, appendBatchGrantRespPayload, dirtyBatchGrantResp(), payload)
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
		rep, err := decodeReused(t, decodeShardReportPayload, appendShardReportPayload, dirtyShardReport(), payload)
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
// field-for-field (the byte identity above could in principle hide a
// swap of two same-width fields).
func TestTypedRoundTrips(t *testing.T) {
	rep := Report{
		V: ProtocolV, Server: 5, Epoch: 3, Seq: 21, CapW: 60, PerfN: 0.7,
		GridW: 58, SoC: 0.25, Fenced: true, IdleFloorW: 25, NameplateW: 120,
		Version:      "dev",
		UtilityCurve: []cluster.CapPoint{{CapW: 25, Perf: 0, GridW: 25}, {CapW: 120, Perf: 1, GridW: 110}},
	}
	got, err := fresh(decodeReportPayload, appendReportPayload(nil, &rep))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("report round trip:\n got %+v\nwant %+v", got, rep)
	}

	// A learned curve's meta fields survive the flag-bit encoding.
	rep.CurveConf = 0.375
	rep.CurveCells = 3
	got, err = fresh(decodeReportPayload, appendReportPayload(nil, &rep))
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
	gotS, err := fresh(decodeShardReportPayload, appendShardReportPayload(nil, srep))
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
	gotB, err := fresh(decodeBatchGrantReqPayload, appendBatchGrantReq(nil, breq))
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

// TestDecodeIntoReusesDestination pins what reuse buys and what it may
// not cost: a destination decoded into again keeps its result slab, its
// version strings and its static curves (the very slices — a member and
// the apportioner snapshot hold them), a changed curve lands in a fresh
// slice with the held one untouched, and a fresh decode reserves exactly
// what it needs.
func TestDecodeIntoReusesDestination(t *testing.T) {
	msgs := canonicalMessages()
	var resp BatchScrapeResponse
	if err := decodeBatchScrapeRespPayload(msgs[FrameBatchScrapeResp], &resp); err != nil {
		t.Fatal(err)
	}
	if cap(resp.Results) != len(resp.Results) {
		t.Errorf("fresh decode over-reserves: %d results in capacity %d", len(resp.Results), cap(resp.Results))
	}
	slab, curve := &resp.Results[0], resp.Results[0].Report.UtilityCurve
	kept := append([]cluster.CapPoint(nil), curve...)
	allocs := testing.AllocsPerRun(10, func() {
		if err := decodeBatchScrapeRespPayload(msgs[FrameBatchScrapeResp], &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding an unchanged reply into its own destination allocates %v objects", allocs)
	}
	if &resp.Results[0] != slab || &resp.Results[0].Report.UtilityCurve[0] != &curve[0] {
		t.Error("decoding an unchanged reply moved the result slab or a static curve")
	}

	moved := resp.Results[0].Report
	moved.UtilityCurve = append([]cluster.CapPoint(nil), curve...)
	moved.UtilityCurve[1].Perf += 0.125
	changed := appendBatchScrapeRespPayload(nil, BatchScrapeResponse{Results: []ScrapeResult{{Server: 0, Report: moved}}})
	if err := decodeBatchScrapeRespPayload(changed, &resp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Results[0].Report, moved) {
		t.Errorf("changed curve decoded as %+v, want %+v", resp.Results[0].Report, moved)
	}
	if !reflect.DeepEqual(curve, kept) {
		t.Errorf("decoding a changed curve wrote the held slice in place: %+v, was %+v", curve, kept)
	}

	var srep ShardReport
	for i := 0; i < 2; i++ {
		if err := decodeShardReportPayload(msgs[FrameShardReportResp], &srep); err != nil {
			t.Fatal(err)
		}
	}
	first := &srep.Curve[0]
	if err := decodeShardReportPayload(msgs[FrameShardReportResp], &srep); err != nil || &srep.Curve[0] != first {
		t.Errorf("decoding an unchanged shard report moved its curve (err %v)", err)
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
	if _, err := fresh(decodeBatchScrapeReqPayload, appendBatchScrapeReq(nil, BatchScrapeRequest{V: ProtocolV, T: 5, Servers: []int{1}})); err == nil || !strings.Contains(err.Error(), "without hasT") {
		t.Errorf("batch scrape time without hasT: got %v", err)
	}

	// A curve count past the remaining payload must fail fast, not
	// allocate. With an empty curve the count u32 sits just before the
	// trailing interval-counter u64.
	rep := appendReportPayload(nil, &Report{V: ProtocolV, Server: 0, SoC: 0.5, Version: ""})
	binary.BigEndian.PutUint32(rep[len(rep)-12:len(rep)-8], 1<<30)
	if _, err := fresh(decodeReportPayload, rep); err == nil || !strings.Contains(err.Error(), "curve count") {
		t.Errorf("lying curve count: got %v", err)
	}

	// Same for batch entry counts.
	batch := appendBatchScrapeReq(nil, BatchScrapeRequest{V: ProtocolV, HasT: true, T: 1, Servers: []int{0}})
	binary.BigEndian.PutUint32(batch[9:13], 1<<30)
	if _, err := fresh(decodeBatchScrapeReqPayload, batch); err == nil || !strings.Contains(err.Error(), "exceeds payload") {
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
			_, err = fresh(decodeBatchScrapeRespPayload, lying[frameHeaderLen:])
		} else {
			_, err = fresh(decodeBatchGrantRespPayload, lying[frameHeaderLen:])
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
	withCurve := appendReportPayload(nil, &Report{
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
	if _, err := fresh(decodeReportPayload, flagged); err == nil || !strings.Contains(err.Error(), "zero meta") {
		t.Errorf("flagged zero curve meta: got %v", err)
	}

	// And a legacy frame — flag never set — still decodes.
	if _, err := fresh(decodeReportPayload, withCurve); err != nil {
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
	if _, err := fresh(decodeBatchGrantReqPayload, appendBatchGrantReq(nil, BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, IvS: 300,
		Entries: []GrantEntry{{Server: 0, CapW: 1}}})); err == nil || !strings.Contains(err.Error(), "lease clock") {
		t.Errorf("batch grant with leaseIv 0: got %v", err)
	}
}
