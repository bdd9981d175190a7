package ctrlplane

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeAssign hammers the assign decoder with arbitrary bytes: it
// must never panic, and anything it accepts must satisfy the validated
// invariants and survive a marshal/decode round trip.
func FuzzDecodeAssign(f *testing.F) {
	seed, _ := json.Marshal(AssignRequest{V: ProtocolV, Epoch: 7, Seq: 3, Server: 1, T: 600, CapW: 85.5, Iv: 12, LeaseIv: 2, IvS: 300})
	f.Add(seed)
	f.Add([]byte(`{"v":3,"epoch":1,"seq":1,"server":0,"t":0,"capW":0,"iv":1,"leaseIv":0,"ivS":300}`))
	f.Add([]byte(`{"v":3,"epoch":0,"seq":1,"server":0,"t":0,"capW":1,"iv":1,"leaseIv":1,"ivS":1}`))
	f.Add([]byte(`{"v":1,"seq":1,"server":0,"t":0,"capW":1,"iv":1,"leaseIv":1,"ivS":1}`))
	f.Add([]byte(`{"v":3,"epoch":1,"seq":0,"server":-1,"t":-5,"capW":-1,"iv":1,"leaseIv":1,"ivS":-1}`))
	f.Add([]byte(`{"v":3,"epoch":1,"seq":1,"server":0,"t":1e309,"capW":1,"iv":1,"leaseIv":1,"ivS":1}`))
	f.Add([]byte(`{"v":3}`))
	f.Add([]byte(`{"v":3,"epoch":1,"seq":1,"server":0,"t":0,"capW":1,"iv":1,"leaseIv":0,"ivS":300}{"trailing":1}`))
	f.Add([]byte(`{"v":3,"unknown":true}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAssign(data)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted message fails validation: %v", err)
		}
		if req.Epoch == 0 {
			t.Fatal("accepted an epochless grant — a pre-HA coordinator slipped through the fence")
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted message does not marshal: %v", err)
		}
		again, err := DecodeAssign(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again != req {
			t.Fatalf("round trip changed the message: %+v != %+v", again, req)
		}
	})
}

// FuzzDecodeReport does the same for telemetry reports, whose utility
// curves feed the coordinator's apportioning DP — a malformed curve
// must be rejected at the wire, not discovered inside the DP.
func FuzzDecodeReport(f *testing.F) {
	seed, _ := json.Marshal(Report{
		V: ProtocolV, Server: 2, Seq: 9, CapW: 80, PerfN: 1.2, GridW: 76,
		SoC: 0.6, IdleFloorW: 25, NameplateW: 120, Version: "v0-test",
	})
	f.Add(seed)
	f.Add([]byte(`{"v":1,"server":0,"seq":0,"capW":0,"perfN":0,"gridW":0,"soc":0,"fenced":true,"idleFloorW":0,"nameplateW":0}`))
	f.Add([]byte(`{"v":1,"server":0,"seq":1,"capW":1,"perfN":1,"gridW":1,"soc":0.5,"idleFloorW":1,"nameplateW":2,"utilityCurve":[{"capW":2,"perf":0.1,"gridW":1},{"capW":4,"perf":0.2,"gridW":3}]}`))
	f.Add([]byte(`{"v":1,"server":0,"seq":1,"capW":1,"perfN":1,"gridW":1,"soc":0.5,"idleFloorW":1,"nameplateW":2,"utilityCurve":[{"capW":4,"perf":0.1,"gridW":1},{"capW":2,"perf":0.2,"gridW":3}]}`))
	f.Add([]byte(`{"v":1,"server":0,"seq":1,"capW":1,"perfN":1,"gridW":1,"soc":1.5,"idleFloorW":1,"nameplateW":2}`))
	f.Add([]byte(`{"v":1,"server":0,"soc":-0.1}`))
	// Learned-curve meta: valid coverage, out-of-range confidence, and
	// meta dangling without a curve.
	f.Add([]byte(`{"v":3,"server":0,"seq":1,"capW":1,"perfN":1,"gridW":1,"soc":0.5,"idleFloorW":1,"nameplateW":2,"utilityCurve":[{"capW":2,"perf":0.1,"gridW":1}],"curveConf":0.5,"curveCells":3}`))
	f.Add([]byte(`{"v":3,"server":0,"seq":1,"capW":1,"perfN":1,"gridW":1,"soc":0.5,"idleFloorW":1,"nameplateW":2,"utilityCurve":[{"capW":2,"perf":0.1,"gridW":1}],"curveConf":1.5,"curveCells":3}`))
	f.Add([]byte(`{"v":3,"server":0,"seq":1,"capW":1,"perfN":1,"gridW":1,"soc":0.5,"idleFloorW":1,"nameplateW":2,"curveConf":0.5,"curveCells":3}`))
	f.Add([]byte(`{"v":3,"server":0,"soc":0.5,"curveCells":-1}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("accepted report fails validation: %v", err)
		}
		if rep.SoC < 0 || rep.SoC > 1 {
			t.Fatalf("accepted report with soc %g", rep.SoC)
		}
		if rep.CurveConf < 0 || rep.CurveConf > 1 {
			t.Fatalf("accepted report with curveConf %g", rep.CurveConf)
		}
		if (rep.CurveConf != 0 || rep.CurveCells != 0) && len(rep.UtilityCurve) == 0 {
			t.Fatalf("accepted curve meta without a curve: conf %g cells %d", rep.CurveConf, rep.CurveCells)
		}
		prev := -1.0
		for _, p := range rep.UtilityCurve {
			if p.CapW <= prev {
				t.Fatalf("accepted non-increasing curve: %g after %g", p.CapW, prev)
			}
			prev = p.CapW
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted report does not marshal: %v", err)
		}
		if _, err := DecodeReport(out); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
	})
}

// FuzzDecodeLease covers the renewal decoder: leases extend draw
// permission, so an accepted message must carry a live epoch and sane
// horizon.
func FuzzDecodeLease(f *testing.F) {
	seed, _ := json.Marshal(LeaseRequest{V: ProtocolV, Epoch: 2, Server: 1, T: 600, Iv: 12, LeaseIv: 2, IvS: 300})
	f.Add(seed)
	f.Add([]byte(`{"v":3,"epoch":1,"server":0,"t":0,"iv":1,"leaseIv":2,"ivS":5}`))
	f.Add([]byte(`{"v":3,"epoch":0,"server":0,"t":0,"iv":1,"leaseIv":2,"ivS":5}`))
	f.Add([]byte(`{"v":1,"server":0,"t":0,"iv":1,"leaseIv":2,"ivS":5}`))
	f.Add([]byte(`{"v":3,"epoch":1,"server":0,"t":0,"iv":1,"leaseIv":1,"ivS":-1}`))
	f.Add([]byte(`{"v":3,"epoch":1,"server":0,"t":0,"iv":1,"leaseIv":2,"ivS":5}trailing`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeLease(data)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted lease fails validation: %v", err)
		}
		if req.Epoch == 0 {
			t.Fatal("accepted an epochless renewal")
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted lease does not marshal: %v", err)
		}
		again, err := DecodeLease(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again != req {
			t.Fatalf("round trip changed the message: %+v != %+v", again, req)
		}
	})
}

// wireTermEq compares optional wire terms field-wise — VoteRequest and
// VoteResponse carry *WireTerm, so struct equality would compare the
// pointers, not the terms.
func wireTermEq(a, b *WireTerm) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// FuzzDecodeVote hammers the quorum vote decoder: votes move the
// replicated leadership term, so anything accepted must satisfy the
// phase invariants (prepare carries no term, accept carries a valid
// one) and survive a marshal/decode round trip.
func FuzzDecodeVote(f *testing.F) {
	w := termToWire(Term{Epoch: 3, Leader: "coord-a:1", Expires: t0})
	prep, _ := json.Marshal(VoteRequest{V: ProtocolV, Phase: VotePrepare, Ballot: 7})
	acc, _ := json.Marshal(VoteRequest{V: ProtocolV, Phase: VoteAccept, Ballot: 7, Term: &w})
	f.Add(prep)
	f.Add(acc)
	f.Add([]byte(`{"v":3,"phase":"prepare","ballot":0}`))
	f.Add([]byte(`{"v":3,"phase":"prepare","ballot":1,"term":{"epoch":1,"leader":"x"}}`))
	f.Add([]byte(`{"v":3,"phase":"accept","ballot":1}`))
	f.Add([]byte(`{"v":3,"phase":"accept","ballot":1,"term":{"epoch":0,"leader":"x"}}`))
	f.Add([]byte(`{"v":3,"phase":"accept","ballot":1,"term":{"epoch":1,"leader":""}}`))
	f.Add([]byte(`{"v":3,"phase":"accept","ballot":1,"term":{"epoch":1,"leader":"x","expiresUnixNano":-1}}`))
	f.Add([]byte(`{"v":3,"phase":"veto","ballot":1}`))
	f.Add([]byte(`{"v":1,"phase":"prepare","ballot":1}`))
	f.Add([]byte(`{"v":3,"phase":"prepare","ballot":1,"bogus":true}`))
	f.Add([]byte(`{"v":3,"phase":"prepare","ballot":1}{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeVote(data)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted vote fails validation: %v", err)
		}
		if req.Ballot == 0 {
			t.Fatal("accepted a zero ballot — voters could double-grant it")
		}
		if (req.Phase == VotePrepare) != (req.Term == nil) {
			t.Fatalf("accepted %s vote with term=%v", req.Phase, req.Term)
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted vote does not marshal: %v", err)
		}
		again, err := DecodeVote(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again.V != req.V || again.Phase != req.Phase || again.Ballot != req.Ballot || !wireTermEq(again.Term, req.Term) {
			t.Fatalf("round trip changed the message: %+v != %+v", again, req)
		}
	})
}

// FuzzDecodeVoteReply covers the voter's answer: a proposer counts
// grants toward a majority, so an accepted response must keep the
// accepted-ballot/term pairing and the promise ordering consistent.
func FuzzDecodeVoteReply(f *testing.F) {
	w := termToWire(Term{Epoch: 3, Leader: "coord-a:1", Expires: t0})
	granted, _ := json.Marshal(VoteResponse{V: ProtocolV, Granted: true, Promise: 9, AcceptedBallot: 7, Term: &w})
	bare, _ := json.Marshal(VoteResponse{V: ProtocolV, Granted: true, Promise: 9})
	f.Add(granted)
	f.Add(bare)
	f.Add([]byte(`{"V":2,"Granted":false,"Promise":3}`))
	f.Add([]byte(`{"V":2,"Granted":true,"Promise":3,"AcceptedBallot":5}`))
	f.Add([]byte(`{"V":2,"Granted":true,"Promise":3,"Term":{"epoch":1,"leader":"x"}}`))
	f.Add([]byte(`{"V":2,"Granted":true,"Promise":3,"AcceptedBallot":4,"Term":{"epoch":1,"leader":"x"}}`))
	f.Add([]byte(`{"V":2,"Granted":true,"Promise":3,"AcceptedBallot":3,"Term":{"epoch":0,"leader":"x"}}`))
	f.Add([]byte(`{"V":1,"Granted":true,"Promise":3}`))
	f.Add([]byte(`{"V":2,"bogus":1}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeVoteResponse(data)
		if err != nil {
			return
		}
		if err := resp.Validate(); err != nil {
			t.Fatalf("accepted response fails validation: %v", err)
		}
		if (resp.AcceptedBallot == 0) != (resp.Term == nil) {
			t.Fatalf("accepted response with unpaired accepted state: %+v", resp)
		}
		if resp.AcceptedBallot > resp.Promise {
			t.Fatalf("accepted response promising %d below its accepted ballot %d", resp.Promise, resp.AcceptedBallot)
		}
		out, err := json.Marshal(resp)
		if err != nil {
			t.Fatalf("accepted response does not marshal: %v", err)
		}
		again, err := DecodeVoteResponse(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again.V != resp.V || again.Granted != resp.Granted || again.Promise != resp.Promise ||
			again.AcceptedBallot != resp.AcceptedBallot || !wireTermEq(again.Term, resp.Term) {
			t.Fatalf("round trip changed the message: %+v != %+v", again, resp)
		}
	})
}

// FuzzDecodeRegister covers the registration decoder: the URL an agent
// announces is dialed by the coordinator every interval, so anything
// accepted must parse as an absolute http(s) URL within the size bound.
func FuzzDecodeRegister(f *testing.F) {
	seed, _ := json.Marshal(RegisterRequest{V: ProtocolV, Server: 4, URL: "http://10.0.0.4:7077", NameplateW: 120})
	f.Add(seed)
	f.Add([]byte(`{"v":3,"server":0,"url":"http://localhost:1","nameplateW":100}`))
	f.Add([]byte(`{"v":3,"server":0,"url":"ftp://x","nameplateW":100}`))
	f.Add([]byte(`{"v":3,"server":0,"url":"/relative","nameplateW":100}`))
	f.Add([]byte(`{"v":3,"server":-1,"url":"http://x","nameplateW":100}`))
	f.Add([]byte(`{"v":3,"server":0,"url":"http://x","nameplateW":-1}`))
	f.Add([]byte(`{"v":1,"server":0,"url":"http://x","nameplateW":100}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRegister(data)
		if err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("accepted registration fails validation: %v", err)
		}
		if len(req.URL) > maxURLBytes {
			t.Fatalf("accepted %d-byte URL", len(req.URL))
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted registration does not marshal: %v", err)
		}
		again, err := DecodeRegister(out)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if again != req {
			t.Fatalf("round trip changed the message: %+v != %+v", again, req)
		}
	})
}
