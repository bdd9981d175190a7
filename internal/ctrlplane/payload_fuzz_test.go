package ctrlplane

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"powerstruggle/internal/cluster"
)

// edgeSeed is one hand-written payload aimed at a message decoder's
// edge: the smallest valid form, or a mutation its Validate must refuse.
type edgeSeed struct {
	ftype   byte
	lease   bool // a renewal on the grant frame: FuzzDecodeLease's seed, not FuzzDecodeAssign's
	payload []byte
}

// with returns a copy of *v that mut has edited.
func with[T any](v *T, mut func(*T)) *T {
	c := *v
	mut(&c)
	return &c
}

// edgeSeeds are hand-written payloads on the decoders' edges:
// FuzzDecodeFrame frames them, the per-message fuzzers feed them to their
// decoder bare. The order is fixed so corpus ids are, and the register
// and vote seeds lead: they are the edge lines of the golden file.
func edgeSeeds() []edgeSeed {
	var out []edgeSeed
	add := func(ftype byte, payloads ...[]byte) {
		for _, p := range payloads {
			out = append(out, edgeSeed{ftype: ftype, payload: p})
		}
	}
	structural := func(ftype byte, good []byte) {
		add(ftype, append(append([]byte{}, good...), 1), good[:len(good)-1], []byte("not a payload"), nil)
	}

	reg := RegisterRequest{V: ProtocolV, URL: "tcp://localhost:1", NameplateW: 100}
	for _, mut := range []func(*RegisterRequest){
		func(*RegisterRequest) {},
		func(r *RegisterRequest) { r.URL = "http://localhost:1" },
		func(r *RegisterRequest) { r.URL = "ftp://x" },
		func(r *RegisterRequest) { r.URL = "/relative" },
		func(r *RegisterRequest) { r.URL = "tcp://" + strings.Repeat("h", maxURLBytes+1-len("tcp://")) },
		func(r *RegisterRequest) { r.Server = -1 },
		func(r *RegisterRequest) { r.NameplateW = -1 },
		func(r *RegisterRequest) { *r = RegisterRequest{} },
	} {
		add(FrameRegisterReq, wireBytes(with(&reg, mut)))
	}

	term := func(epoch uint64, leader string, expires int64) *WireTerm {
		return &WireTerm{Epoch: epoch, Leader: leader, ExpiresUnixNano: expires}
	}
	longID := strings.Repeat("l", maxLeaderBytes+1)
	prepare := VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 1}
	accept := VoteRequest{V: ProtocolV, Phase: VoteAccept, Ballot: 1, Term: term(1, "x", 0)}
	for _, req := range []*VoteRequest{
		&prepare,
		with(&prepare, func(r *VoteRequest) { r.Ballot = 0 }),
		with(&prepare, func(r *VoteRequest) { r.Term = term(1, "x", 0) }),
		with(&prepare, func(r *VoteRequest) { r.Phase = "veto" }),
		with(&accept, func(r *VoteRequest) { r.Term = nil }),
		with(&accept, func(r *VoteRequest) { r.Term = term(0, "x", 0) }),
		with(&accept, func(r *VoteRequest) { r.Term = term(1, "", 0) }),
		with(&accept, func(r *VoteRequest) { r.Term = term(1, "x", -1) }),
		with(&accept, func(r *VoteRequest) { r.Term = term(1, longID, 0) }),
	} {
		add(FrameVoteReq, wireBytes(req))
	}
	structural(FrameVoteReq, wireBytes(&prepare))

	granted := VoteResponse{V: ProtocolV, Granted: true, Promise: 9}
	for _, mut := range []func(*VoteResponse){
		func(*VoteResponse) {},
		func(r *VoteResponse) { r.Granted, r.Promise = false, 3 },
		func(r *VoteResponse) { r.AcceptedBallot = 5 },
		func(r *VoteResponse) { r.Term = term(1, "x", 0) },
		func(r *VoteResponse) { r.AcceptedBallot, r.Term = 10, term(1, "x", 0) },
		func(r *VoteResponse) { r.AcceptedBallot, r.Term = 3, term(0, "x", 0) },
		func(r *VoteResponse) { r.AcceptedBallot, r.Term = 3, term(1, longID, 0) },
	} {
		add(FrameVoteResp, wireBytes(with(&granted, mut)))
	}
	structural(FrameVoteResp, wireBytes(&granted))

	// Every bound a grant or a renewal once had a frame of its own to
	// enforce, now on the one grant frame. A grant's seeds carry one
	// plain entry and each mutation must be refused; a renewal's carry
	// one Renew entry and lead with the valid renewal.
	grant := BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, LeaseIv: 1, IvS: 300,
		Entries: []GrantEntry{{CapW: 1}}}
	entry := func(mut func(*GrantEntry)) func(*BatchGrantRequest) {
		return func(r *BatchGrantRequest) {
			r.Entries = []GrantEntry{r.Entries[0]}
			mut(&r.Entries[0])
		}
	}
	for _, mut := range []func(*BatchGrantRequest){
		func(r *BatchGrantRequest) { r.LeaseIv = 0 },
		func(r *BatchGrantRequest) { r.Epoch = 0 },
		func(r *BatchGrantRequest) { r.Seq = 0 },
		entry(func(e *GrantEntry) { e.Server = -1 }),
		func(r *BatchGrantRequest) { r.T = math.Inf(1) },
		entry(func(e *GrantEntry) { e.CapW = math.NaN() }),
		func(r *BatchGrantRequest) { *r = BatchGrantRequest{} },
		func(r *BatchGrantRequest) { r.IvS = -1 },
		func(r *BatchGrantRequest) { r.T = -5 },
		entry(func(e *GrantEntry) { e.CapW = -1 }),
	} {
		add(FrameBatchGrantReq, wireBytes(with(&grant, mut)))
	}
	structural(FrameBatchGrantReq, wireBytes(&grant))

	renew := BatchGrantRequest{V: ProtocolV, Epoch: 1, Seq: 1, Iv: 1, LeaseIv: 2, IvS: 5,
		Entries: []GrantEntry{{CapW: 1, Renew: true}}}
	leases := len(out)
	for _, mut := range []func(*BatchGrantRequest){
		func(*BatchGrantRequest) {},
		func(r *BatchGrantRequest) { r.Epoch = 0 },
		func(r *BatchGrantRequest) { r.IvS = -1 },
		func(r *BatchGrantRequest) { r.LeaseIv = 0 },
	} {
		add(FrameBatchGrantReq, wireBytes(with(&renew, mut)))
	}
	structural(FrameBatchGrantReq, wireBytes(&renew))
	for i := leases; i < len(out); i++ {
		out[i].lease = true
	}

	scrape := BatchScrapeRequest{V: ProtocolV, T: 5, HasT: true, Servers: []int{0}}
	for _, mut := range []func(*BatchScrapeRequest){
		func(r *BatchScrapeRequest) { r.HasT = false },
		func(r *BatchScrapeRequest) { r.T, r.HasT = 0, false },
		func(r *BatchScrapeRequest) { r.T = -1 },
		func(r *BatchScrapeRequest) { r.T = math.NaN() },
		func(r *BatchScrapeRequest) { r.Servers = []int{0, -1} },
		func(r *BatchScrapeRequest) { r.Servers = nil },
	} {
		add(FrameBatchScrapeReq, wireBytes(with(&scrape, mut)))
	}
	structural(FrameBatchScrapeReq, wireBytes(&scrape))

	// Reports reach the coordinator only as scrape reply slots; each seed
	// is a one-slot reply, so the report is the payload's tail.
	point := func(capW float64) cluster.CapPoint {
		return cluster.CapPoint{CapW: capW, Perf: capW / 10, GridW: capW / 2}
	}
	// curved gives a report points and their own version.
	curved := func(r *Report, pts ...cluster.CapPoint) { r.UtilityCurve, r.CurveVer = pts, curveVersion(pts) }
	rep := Report{V: ProtocolV, Seq: 1, CapW: 1, PerfN: 1, GridW: 1, SoC: 0.5, IdleFloorW: 1, NameplateW: 2}
	for _, mut := range []func(*Report){
		func(r *Report) { *r = Report{V: ProtocolV, Fenced: true} },
		func(r *Report) { curved(r, point(2), point(4)) },
		func(r *Report) { curved(r, point(4), point(2)) },
		func(r *Report) { r.SoC = 1.5 },
		func(r *Report) { r.SoC = -0.1 },
		func(r *Report) { r.Server = -1 },
		func(r *Report) { curved(r, point(2)); r.CurveConf, r.CurveCells = 0.5, 3 },
		func(r *Report) { curved(r, point(2)); r.CurveConf, r.CurveCells = 1.5, 3 },
		func(r *Report) { r.CurveConf, r.CurveCells = 0.5, 3 },
		func(r *Report) { curved(r, point(2)); r.CurveCells = -1 },
	} {
		add(FrameBatchScrapeResp, reportSlot(*with(&rep, mut)))
	}
	// A curve count whose size in bytes (×24) wraps a 32-bit int to the 8
	// bytes that follow it: a guard that multiplies lets it through to
	// the allocation.
	wrap := reportSlot(Report{V: ProtocolV, SoC: 0.5})
	binary.BigEndian.PutUint32(wrap[len(wrap)-12:], 0x0AAAAAAB)
	add(FrameBatchScrapeResp, wrap)

	// v5's curve versions, each rule once per message that carries a
	// curve or a held list: the version without its points (and with the
	// meta), points under another version, the version flag over version
	// 0, meta with neither points nor version; a held list of the wrong
	// length, and one of zeros that should have been sent empty.
	for _, mut := range []func(*Report){
		func(r *Report) { r.CurveVer, r.CurveConf, r.CurveCells = 7, 0.5, 3 },
		func(r *Report) { r.UtilityCurve, r.CurveVer = []cluster.CapPoint{point(2)}, 7 },
	} {
		add(FrameBatchScrapeResp, reportSlot(*with(&rep, mut)))
	}
	add(FrameBatchScrapeResp, zeroCurveVersion(reportSlot(*with(&rep, func(r *Report) { curved(r, point(2)) })), 1, 8))
	for _, held := range [][]uint64{{7}, {7, 0}, {0}} {
		add(FrameBatchScrapeReq, wireBytes(with(&scrape, func(r *BatchScrapeRequest) { r.Held = held })))
	}
	roll := []cluster.CapPoint{point(10), point(20)}
	srep := ShardReport{V: ProtocolV, Shard: 1, T: 5, Leading: true, Agents: 2, FloorW: 10, Curve: roll, CurveVer: curveVersion(roll)}
	for _, mut := range []func(*ShardReport){
		func(*ShardReport) {},
		func(r *ShardReport) { r.Curve = nil },
		func(r *ShardReport) { r.Curve, r.CurveVer = nil, 0 },
		func(r *ShardReport) { r.CurveVer = 7 },
		func(r *ShardReport) { r.Curve = []cluster.CapPoint{point(20), point(10)} },
		func(r *ShardReport) { r.Shard = -1 },
		func(r *ShardReport) { r.Agents = -1 },
		func(r *ShardReport) { r.UsedW = math.NaN() },
	} {
		add(FrameShardReportResp, wireBytes(with(&srep, mut)))
	}
	add(FrameShardReportResp, zeroCurveVersion(wireBytes(&srep), len(roll), 24))
	metaBit := wireBytes(&srep)
	binary.BigEndian.PutUint32(metaBit[len(metaBit)-24-24*len(roll)-8-4:], uint32(len(roll))|curveVerFlag|curveMetaFlag)
	add(FrameShardReportResp, metaBit)
	structural(FrameShardReportResp, wireBytes(&srep))
	sreq := ShardReportRequest{V: ProtocolV, Shard: 1, T: 5, HasT: true, Iv: 3, Held: 7}
	for _, mut := range []func(*ShardReportRequest){
		func(*ShardReportRequest) {},
		func(r *ShardReportRequest) { r.Held = 0 },
		func(r *ShardReportRequest) { r.Shard = -1 },
		func(r *ShardReportRequest) { r.HasT = false },
		func(r *ShardReportRequest) { r.T = math.NaN() },
	} {
		add(FrameShardReportReq, wireBytes(with(&sreq, mut)))
	}
	structural(FrameShardReportReq, wireBytes(&sreq))
	return out
}

// zeroCurveVersion zeroes the version word of the one versioned curve in
// payload p, whose n points and tail bytes of fields end the payload: the
// version flag is left set over version 0.
func zeroCurveVersion(p []byte, n, tail int) []byte {
	p = append([]byte(nil), p...)
	off := len(p) - tail - 24*n - 8
	clear(p[off : off+8])
	return p
}

// fuzzPayload hammers decode of one message with arbitrary payload
// bytes: it must never panic, and anything it accepts must satisfy the
// message's validated invariants — a scrape reply's, each report it
// carries — and re-encode to the very bytes it was decoded from: one
// byte representation per value. A message with a reusable destination
// takes decodeReused's equivalence check on the way. The grant frame
// has two seed sets: lease picks the renewals' over the grants'.
func fuzzPayload(f *testing.F, ftype byte, lease bool) {
	f.Add(canonicalMessages()[ftype])
	for _, s := range edgeSeeds() {
		if s.ftype == ftype && s.lease == lease {
			f.Add(s.payload)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeReused(t, ftype, data)
		if err != nil {
			return
		}
		// Value receivers: the method set of the pointer decodeReused
		// returns includes them.
		switch m := m.(type) {
		case validator:
			err = m.Validate()
		case *BatchScrapeResponse:
			for i := 0; i < len(m.Results) && err == nil; i++ {
				if m.Results[i].Err == "" {
					err = m.Results[i].Report.Validate()
				}
			}
		}
		if err != nil {
			t.Fatalf("accepted message fails validation: %v", err)
		}
		if re := wireBytes(m); !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes: %+v", len(data), len(re), m)
		}
	})
}

// The decoders an untrusted peer reaches first each get the bare-payload
// treatment: the grant frame twice (seeded with grants, then with
// renewals, the two messages it carries), the scrape request, the scrape
// reply whose reports (and curves) feed the apportioning DP, the
// registration whose URL the coordinator dials every interval, and both
// halves of a quorum vote, and both halves of the trunk scrape, whose
// reply carries the rollup the global DP prices. FuzzDecodeFrame covers
// every frame type behind the header.
func FuzzDecodeAssign(f *testing.F)      { fuzzPayload(f, FrameBatchGrantReq, false) }
func FuzzDecodeLease(f *testing.F)       { fuzzPayload(f, FrameBatchGrantReq, true) }
func FuzzDecodeBatchScrape(f *testing.F) { fuzzPayload(f, FrameBatchScrapeReq, false) }
func FuzzDecodeReport(f *testing.F)      { fuzzPayload(f, FrameBatchScrapeResp, false) }
func FuzzDecodeRegister(f *testing.F)    { fuzzPayload(f, FrameRegisterReq, false) }
func FuzzDecodeVote(f *testing.F)        { fuzzPayload(f, FrameVoteReq, false) }
func FuzzDecodeVoteReply(f *testing.F)   { fuzzPayload(f, FrameVoteResp, false) }

func FuzzDecodeShardReport(f *testing.F)    { fuzzPayload(f, FrameShardReportResp, false) }
func FuzzDecodeShardReportReq(f *testing.F) { fuzzPayload(f, FrameShardReportReq, false) }
