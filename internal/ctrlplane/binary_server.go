package ctrlplane

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// CtrlEndpoint is the server-side surface one agent exposes to the
// wire — *Agent, for replay fleets and live daemons alike. Methods
// mirror the three agent RPCs; all must be safe for concurrent use.
type CtrlEndpoint interface {
	Assign(req AssignRequest) (AssignResponse, error)
	Renew(req LeaseRequest) (LeaseResponse, error)
	Scrape(t float64, hasT bool) (Report, error)
}

// BinaryServerConfig wires endpoints into a BinaryServer. Endpoints
// maps server id → agent; many agents share one listener, which is
// what makes batch frames possible. The coordinator hooks are nil on
// agent-only servers — the matching frames then answer FrameError.
type BinaryServerConfig struct {
	Endpoints map[int]CtrlEndpoint
	Register  func(req RegisterRequest) RegisterResponse
	Vote      func(req VoteRequest) VoteResponse
	Leader    func() LeaderStatus
	// ShardReport and ShardBudget are the trunk surface a shard
	// coordinator exposes to the global apportioner; nil on servers that
	// are not shard coordinators (the frames then answer FrameError).
	ShardReport func(req ShardReportRequest) (ShardReport, error)
	ShardBudget func(req ShardBudgetRequest) (ShardBudgetResponse, error)
}

// BinaryServer serves the control protocol's frames on one TCP
// listener: many agents (and optionally a coordinator's
// register/vote/leader surface) behind a single addr, one goroutine
// per conn, frames answered in arrival order per conn.
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
// requests are read into, the buffer responses are built in, and the
// decoded form of the two batch requests. A steady-state interval
// reuses all four; nothing in them outlives the frame they serve.
type serverConn struct {
	in, out frameBuf
	scrape  BatchScrapeRequest
	grant   BatchGrantRequest
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

func (s *BinaryServer) endpoint(server int) (CtrlEndpoint, error) {
	ep, ok := s.cfg.Endpoints[server]
	if !ok {
		return nil, fmt.Errorf("no agent %d behind this listener", server)
	}
	return ep, nil
}

// dispatch answers one decoded frame with one whole response frame,
// built in the connection's out buffer: the payload is encoded straight
// after the header as it is produced, and the header's type and length
// are patched once it is complete. Malformed payloads inside a
// well-framed message answer FrameError and keep the conn.
func (s *BinaryServer) dispatch(sc *serverConn, ftype byte, payload []byte) []byte {
	hdr := appendFrameHeader(sc.out.b[:0])
	fail := func(err error) []byte {
		return finishFrame(appendErrPayload(hdr, err.Error()), FrameError)
	}
	switch ftype {
	case FrameScrapeReq:
		req, err := decodeScrapeReq(payload)
		if err != nil {
			return fail(err)
		}
		ep, err := s.endpoint(req.server)
		if err != nil {
			return fail(err)
		}
		rep, err := ep.Scrape(req.t, req.hasT)
		if err != nil {
			return fail(err)
		}
		return finishFrame(appendReportPayload(hdr, &rep), FrameReportResp)

	case FrameAssignReq:
		req, err := decodeAssignReqPayload(payload)
		if err != nil {
			return fail(err)
		}
		ep, err := s.endpoint(req.Server)
		if err != nil {
			return fail(err)
		}
		resp, err := ep.Assign(req)
		if err != nil {
			return fail(err)
		}
		return finishFrame(appendAssignRespPayload(hdr, resp), FrameAssignResp)

	case FrameLeaseReq:
		req, err := decodeLeaseReqPayload(payload)
		if err != nil {
			return fail(err)
		}
		ep, err := s.endpoint(req.Server)
		if err != nil {
			return fail(err)
		}
		resp, err := ep.Renew(req)
		if err != nil {
			return fail(err)
		}
		return finishFrame(appendLeaseRespPayload(hdr, resp), FrameLeaseResp)

	case FrameRegisterReq:
		if s.cfg.Register == nil {
			return fail(fmt.Errorf("not a coordinator: no register endpoint"))
		}
		req, err := decodeRegisterReqPayload(payload)
		if err != nil {
			return fail(err)
		}
		return finishFrame(appendRegisterRespPayload(hdr, s.cfg.Register(req)), FrameRegisterResp)

	case FrameVoteReq:
		if s.cfg.Vote == nil {
			return fail(fmt.Errorf("not a quorum voter: no vote endpoint"))
		}
		req, err := decodeVoteReqPayload(payload)
		if err != nil {
			return fail(err)
		}
		return finishFrame(appendVoteRespPayload(hdr, s.cfg.Vote(req)), FrameVoteResp)

	case FrameLeaderReq:
		if s.cfg.Leader == nil {
			return fail(fmt.Errorf("not a coordinator: no leader endpoint"))
		}
		if len(payload) != 0 {
			return fail(fmt.Errorf("leader request carries %d payload bytes", len(payload)))
		}
		return finishFrame(appendLeaderStatusPayload(hdr, s.cfg.Leader()), FrameLeaderResp)

	case FrameBatchScrapeReq:
		req := &sc.scrape
		if err := decodeBatchScrapeReqPayload(payload, req); err != nil {
			return fail(err)
		}
		w := wbuf{b: hdr}
		w.u32(uint32(len(req.Servers)))
		for _, server := range req.Servers {
			s.scrapeOne(&w, server, req.T, req.HasT)
		}
		return finishFrame(w.b, FrameBatchScrapeResp)

	case FrameBatchGrantReq:
		req := &sc.grant
		if err := decodeBatchGrantReqPayload(payload, req); err != nil {
			return fail(err)
		}
		w := wbuf{b: hdr}
		w.u32(uint32(len(req.Entries)))
		for _, e := range req.Entries {
			s.grantOne(&w, req, e)
		}
		return finishFrame(w.b, FrameBatchGrantResp)

	case FrameShardReportReq:
		if s.cfg.ShardReport == nil {
			return fail(fmt.Errorf("not a shard coordinator: no shard-report endpoint"))
		}
		req, err := decodeShardReportReqPayload(payload)
		if err != nil {
			return fail(err)
		}
		rep, err := s.cfg.ShardReport(req)
		if err != nil {
			return fail(err)
		}
		return finishFrame(appendShardReportPayload(hdr, rep), FrameShardReportResp)

	case FrameShardBudgetReq:
		if s.cfg.ShardBudget == nil {
			return fail(fmt.Errorf("not a shard coordinator: no shard-budget endpoint"))
		}
		req, err := decodeShardBudgetReqPayload(payload)
		if err != nil {
			return fail(err)
		}
		resp, err := s.cfg.ShardBudget(req)
		if err != nil {
			return fail(err)
		}
		return finishFrame(appendShardBudgetRespPayload(hdr, resp), FrameShardBudgetResp)
	}
	return fail(fmt.Errorf("frame type %#02x is not a request", ftype))
}

// scrapeOne encodes one batch-scrape slot straight into the response:
// the agent's report, or the per-agent error.
func (s *BinaryServer) scrapeOne(w *wbuf, server int, t float64, hasT bool) {
	var rep Report
	var errMsg string
	ep, err := s.endpoint(server)
	if err == nil {
		rep, err = ep.Scrape(t, hasT)
	}
	if err != nil {
		errMsg, rep = err.Error(), Report{}
	}
	putScrapeResult(w, server, errMsg, &rep)
}

// LeaderStatus answers the leader frame: which candidate this
// coordinator believes leads, under which epoch, and whether it is that
// candidate itself.
type LeaderStatus struct {
	V         int    `json:"v"`
	ID        string `json:"id"`
	LeaderID  string `json:"leaderId"`
	Epoch     uint64 `json:"epoch"`
	Leader    bool   `json:"leader"`
	Failovers int    `json:"failovers"`
}

// coordStatus builds a coordinator's leadership view. ha may be nil for
// a plain single coordinator — it then reports itself leader of its own
// epoch with no election behind it.
func coordStatus(c *Coordinator, ha *HA) LeaderStatus {
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

// NewCoordinatorBinaryConfig exposes a coordinator's register/vote/
// leader surface: agent registration, the leadership probe, and — when
// voter is non-nil — this pool member's quorum voter. ha may be nil
// (see coordStatus). Merge the result with agent endpoints to co-host
// both on one listener.
func NewCoordinatorBinaryConfig(c *Coordinator, ha *HA, voter *QuorumVoter) BinaryServerConfig {
	cfg := BinaryServerConfig{
		Register: func(req RegisterRequest) RegisterResponse {
			resp := c.Register(req)
			st := coordStatus(c, ha)
			resp.Leader = st.Leader
			resp.LeaderID = st.LeaderID
			return resp
		},
		Leader: func() LeaderStatus { return coordStatus(c, ha) },
	}
	if voter != nil {
		cfg.Vote = voter.Vote
	}
	return cfg
}

// grantOne applies one batch-grant entry and encodes its slot straight
// into the response: a coalesced renewal first when asked, falling
// through to a fresh assign under the frame's (Epoch, Seq) when the
// renewal did not hold the requested budget — the coordinator's unary
// renew-else-assign sequence, server-side.
func (s *BinaryServer) grantOne(w *wbuf, req *BatchGrantRequest, e GrantEntry) {
	ep, err := s.endpoint(e.Server)
	if err != nil {
		putGrantResult(w, e.Server, err.Error(), false, AssignResponse{})
		return
	}
	if e.Renew {
		lr := LeaseRequest{V: ProtocolV, Epoch: req.Epoch, Server: e.Server, T: req.T,
			Iv: req.Iv, LeaseIv: req.LeaseIv, IvS: req.IvS}
		resp, err := ep.Renew(lr)
		if err == nil && !resp.Fenced && resp.Epoch == req.Epoch && resp.CapW == e.CapW {
			putGrantResult(w, e.Server, "", true, AssignResponse{
				V: ProtocolV, Server: e.Server, Epoch: resp.Epoch, CapW: resp.CapW, Fenced: resp.Fenced, Iv: resp.Iv,
			})
			return
		}
	}
	ar := AssignRequest{V: ProtocolV, Epoch: req.Epoch, Seq: req.Seq, Server: e.Server, T: req.T, CapW: e.CapW,
		Iv: req.Iv, LeaseIv: req.LeaseIv, IvS: req.IvS}
	resp, err := ep.Assign(ar)
	if err != nil {
		putGrantResult(w, e.Server, err.Error(), false, AssignResponse{})
		return
	}
	putGrantResult(w, e.Server, "", false, resp)
}
