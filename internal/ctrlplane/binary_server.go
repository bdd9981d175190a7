package ctrlplane

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// CtrlEndpoint is the surface one agent exposes — *Agent, for replay
// fleets and live daemons alike. The listener calls it once per batch
// slot (Scrape for a scrape slot, Renew and then Assign for a grant
// entry, see grantOne); in-process callers use it directly. All methods
// must be safe for concurrent use.
type CtrlEndpoint interface {
	Assign(req AssignRequest) (AssignResponse, error)
	Renew(req LeaseRequest) (LeaseResponse, error)
	Scrape(t float64, hasT bool) (Report, error)
}

// BinaryServerConfig wires endpoints into a BinaryServer. Endpoints
// maps server id → agent; many agents share one listener, which is
// what makes batch frames possible. It is fixed once the server starts:
// each conn resolves a batch's ids once and keeps the answer while the
// ids repeat. The coordinator hooks are nil on agent-only servers — the
// matching frames then answer FrameError.
type BinaryServerConfig struct {
	Endpoints map[int]CtrlEndpoint
	Register  func(req RegisterRequest) RegisterResponse
	Vote      func(req VoteRequest) VoteResponse
	// ShardReport and ShardBudget are the trunk surface a shard
	// coordinator exposes to the global apportioner; nil on servers that
	// are not shard coordinators (the frames then answer FrameError).
	ShardReport func(req ShardReportRequest) (ShardReport, error)
	ShardBudget func(req ShardBudgetRequest) (ShardBudgetResponse, error)
}

// BinaryServer serves the control protocol's frames on one TCP
// listener: many agents (and optionally a coordinator's register/vote
// surface) behind a single addr, one goroutine per conn, frames
// answered in arrival order per conn.
type BinaryServer struct {
	cfg BinaryServerConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// serverIdleTimeout sheds conns idle longer than this; clients redial
// transparently.
const serverIdleTimeout = 5 * time.Minute

// StartBinaryServer listens on addr (host:port, port 0 for ephemeral)
// and serves until Close.
func StartBinaryServer(addr string, cfg BinaryServerConfig) (*BinaryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &BinaryServer{cfg: cfg, ln: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the bound listen address.
func (s *BinaryServer) Addr() string { return s.ln.Addr().String() }

// URL returns the tcp:// base URL clients dial.
func (s *BinaryServer) URL() string { return "tcp://" + s.Addr() }

// BounceConns closes every live conn (chaos drills); the listener
// stays up, so clients recover by redialing.
func (s *BinaryServer) BounceConns() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Close stops the listener and tears down every conn.
func (s *BinaryServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.ln.Close()
	s.BounceConns()
	s.wg.Wait()
}

func (s *BinaryServer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *BinaryServer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *BinaryServer) serve() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(c) {
			c.Close()
			return
		}
		s.wg.Add(1)
		go s.handle(c)
	}
}

// serverConn is what one connection owns across frames: the buffer
// requests are read into, the buffer responses are built in, the
// decoded form of the two batch requests, the reply slot each batch
// entry is answered into, and the endpoints of the last batch's ids. A
// steady-state interval reuses all of them; nothing in the buffers,
// requests or slots outlives the frame they serve.
type serverConn struct {
	in, out    frameBuf
	scrape     BatchScrapeRequest
	grant      BatchGrantRequest
	scrapeSlot ScrapeResult
	grantSlot  GrantResult
	// eps[j] is what slot j of the last batch resolved to. Scrape and
	// grant frames share it: a coordinator sends the same ids in the
	// same order every interval.
	eps []resolved
}

// resolved is one batch slot's server id and its endpoint or, when none
// is behind this listener, the error the slot answers.
type resolved struct {
	server int
	ep     CtrlEndpoint
	err    error
}

func (s *BinaryServer) handle(c net.Conn) {
	defer s.wg.Done()
	defer s.untrack(c)
	defer c.Close()
	br := bufio.NewReader(c)
	var sc serverConn
	for {
		_ = c.SetReadDeadline(time.Now().Add(serverIdleTimeout))
		ftype, payload, err := readFrame(br, &sc.in.b)
		if err != nil {
			// Framing errors (bad magic, truncation, oversize) desync
			// the stream: there is no way back to a frame boundary, so
			// the conn is dropped rather than answered.
			return
		}
		sc.out.b = s.dispatch(&sc, ftype, payload)
		_ = c.SetWriteDeadline(time.Now().Add(30 * time.Second))
		// Header and payload leave in one write.
		if _, err := c.Write(sc.out.b); err != nil {
			return
		}
		sc.in.handled(len(payload))
		sc.out.handled(len(sc.out.b))
	}
}

// endpoint resolves slot j of a batch addressed to server: from the
// conn's cache when the last batch had the same id there, else from
// Endpoints, which then becomes slot j's cached answer. Slots are
// resolved in order, so j never exceeds the cache's length.
func (s *BinaryServer) endpoint(sc *serverConn, j, server int) (CtrlEndpoint, error) {
	if j < len(sc.eps) && sc.eps[j].server == server {
		return sc.eps[j].ep, sc.eps[j].err
	}
	r := resolved{server: server}
	var ok bool
	if r.ep, ok = s.cfg.Endpoints[server]; !ok {
		r.err = fmt.Errorf("no agent %d behind this listener", server)
	}
	if j == len(sc.eps) {
		sc.eps = append(sc.eps, resolved{})
	}
	sc.eps[j] = r
	return r.ep, r.err
}

// reply completes the response frame begun at hdr: m's payload under
// m's frame type, or err's message under FrameError.
func reply(hdr []byte, m any, err error) []byte {
	if err != nil {
		m = &frameRemoteError{msg: err.Error()}
	}
	return finishFrame(encode(hdr, m))
}

// answer is one non-batch frame: decode the request, run its handler,
// reply. A malformed payload inside a well-framed message answers
// FrameError and keeps the conn, like a handler's own error.
func answer[Req, Resp any](hdr, payload []byte, handler func(Req) (Resp, error)) []byte {
	var req Req
	var resp Resp
	err := decode(payload, &req)
	if err == nil {
		resp, err = handler(req)
	}
	return reply(hdr, &resp, err)
}

// dispatch answers one frame with one whole response frame, built in the
// connection's out buffer: the payload is encoded straight after the
// header as it is produced, and the header's type and length are patched
// once it is complete.
func (s *BinaryServer) dispatch(sc *serverConn, ftype byte, payload []byte) []byte {
	hdr := appendFrameHeader(sc.out.b[:0])
	cfg := &s.cfg
	unhosted := func(why string) []byte { return reply(hdr, nil, errors.New(why)) }
	switch ftype {
	case FrameRegisterReq:
		if cfg.Register == nil {
			return unhosted("not a coordinator: no register endpoint")
		}
		return answer(hdr, payload, func(req RegisterRequest) (RegisterResponse, error) {
			return cfg.Register(req), nil
		})
	case FrameVoteReq:
		if cfg.Vote == nil {
			return unhosted("not a quorum voter: no vote endpoint")
		}
		return answer(hdr, payload, func(req VoteRequest) (VoteResponse, error) {
			return cfg.Vote(req), nil
		})
	case FrameShardReportReq:
		if cfg.ShardReport == nil {
			return unhosted("not a shard coordinator: no shard-report endpoint")
		}
		return answer(hdr, payload, cfg.ShardReport)
	case FrameShardBudgetReq:
		if cfg.ShardBudget == nil {
			return unhosted("not a shard coordinator: no shard-budget endpoint")
		}
		return answer(hdr, payload, cfg.ShardBudget)

	// The two batch responses are encoded slot by slot as the agents
	// answer into the conn's one reply slot, so the server never holds a
	// fleet's worth of results. A slot's report or acknowledgement is
	// encoded only under an empty error: an earlier slot's never crosses.
	case FrameBatchScrapeReq:
		req := &sc.scrape
		if err := decode(payload, req); err != nil {
			return reply(hdr, nil, err)
		}
		w := wire{enc: true, b: hdr}
		w.slotCount(len(req.Servers), "batch scrape response")
		res := &sc.scrapeSlot
		for j, server := range req.Servers {
			res.Server, res.Err = server, ""
			ep, err := s.endpoint(sc, j, server)
			if err == nil {
				res.Report, err = ep.Scrape(req.T, req.HasT)
			}
			if err != nil {
				res.Err = err.Error() // the slot then carries no report
			} else if ver := res.Report.CurveVer; ver != 0 && j < len(req.Held) && req.Held[j] == ver {
				res.Report.UtilityCurve = nil // the scraper holds this curve
			}
			res.wire(&w)
		}
		return finishFrame(w.b, FrameBatchScrapeResp)
	case FrameBatchGrantReq:
		req := &sc.grant
		if err := decode(payload, req); err != nil {
			return reply(hdr, nil, err)
		}
		w := wire{enc: true, b: hdr}
		w.slotCount(len(req.Entries), "batch grant response")
		res := &sc.grantSlot
		for j := range req.Entries {
			e := &req.Entries[j]
			ep, err := s.endpoint(sc, j, e.Server)
			grantOne(req, e, ep, err, res)
			res.wire(&w)
		}
		return finishFrame(w.b, FrameBatchGrantResp)
	}
	return reply(hdr, nil, fmt.Errorf("frame type %#02x is not a request", ftype))
}

// LeaderStatus is a coordinator's leadership view, as pscoord renders
// it on GET /ctrl/leader: which candidate it believes leads, under which
// epoch, and whether it is that candidate itself.
type LeaderStatus struct {
	V         int    `json:"v"`
	ID        string `json:"id"`
	LeaderID  string `json:"leaderId"`
	Epoch     uint64 `json:"epoch"`
	Leader    bool   `json:"leader"`
	Failovers int    `json:"failovers"`
}

// CoordStatus builds a coordinator's leadership view. ha may be nil for
// a plain single coordinator — it then reports itself leader of its own
// epoch with no election behind it.
func CoordStatus(c *Coordinator, ha *HA) LeaderStatus {
	st := LeaderStatus{V: ProtocolV, Epoch: c.Epoch(), Leader: true}
	if ha != nil {
		term, lead := ha.Leader()
		st.ID = ha.ID()
		st.LeaderID = term.Leader
		st.Epoch = term.Epoch
		st.Leader = lead
		st.Failovers = ha.Failovers()
	}
	return st
}

// NewCoordinatorBinaryConfig exposes a coordinator's register/vote
// surface: agent registration, answered with the leadership view, and —
// when voter is non-nil — this pool member's quorum voter. ha may be nil
// (see CoordStatus). Merge the result with agent endpoints to co-host
// both on one listener.
func NewCoordinatorBinaryConfig(c *Coordinator, ha *HA, voter *QuorumVoter) BinaryServerConfig {
	cfg := BinaryServerConfig{
		Register: func(req RegisterRequest) RegisterResponse {
			resp := c.Register(req)
			st := CoordStatus(c, ha)
			resp.Leader = st.Leader
			resp.LeaderID = st.LeaderID
			return resp
		},
	}
	if voter != nil {
		cfg.Vote = voter.Vote
	}
	return cfg
}

// grantOne applies one batch-grant entry through ep, the endpoint its
// slot resolved to (or err, when none did), and writes the response into
// res: a coalesced renewal first when asked, falling through to a fresh
// assign under the frame's (Epoch, Seq) when the renewal did not hold
// the requested budget. It is the one home of the renew-else-assign
// rule: every coordinator grant rides a batch frame.
func grantOne(req *BatchGrantRequest, e *GrantEntry, ep CtrlEndpoint, err error, res *GrantResult) {
	res.Server, res.Err, res.Renewed = e.Server, "", false
	if err == nil && e.Renew {
		lr := LeaseRequest{V: ProtocolV, Epoch: req.Epoch, Server: e.Server, T: req.T,
			Iv: req.Iv, LeaseIv: req.LeaseIv, IvS: req.IvS}
		resp, err := ep.Renew(lr)
		if err == nil && !resp.Fenced && resp.Epoch == req.Epoch && resp.CapW == e.CapW {
			res.Renewed = true
			res.Resp = AssignResponse{V: ProtocolV, Server: e.Server, Epoch: resp.Epoch, CapW: resp.CapW, Fenced: resp.Fenced, Iv: resp.Iv}
			return
		}
	}
	if err == nil {
		ar := AssignRequest{V: ProtocolV, Epoch: req.Epoch, Seq: req.Seq, Server: e.Server, T: req.T, CapW: e.CapW,
			Iv: req.Iv, LeaseIv: req.LeaseIv, IvS: req.IvS}
		res.Resp, err = ep.Assign(ar)
	}
	if err != nil {
		res.Err = err.Error() // the slot then carries no acknowledgement
	}
}
