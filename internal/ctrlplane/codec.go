package ctrlplane

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"powerstruggle/internal/cluster"
)

// Binary framing of the v3 control protocol (see docs/WIRE.md).
//
// Every frame is:
//
//	'P' 'W' | version u8 | type u8 | payload length u32 BE | payload
//
// The header carries the protocol version once, so payloads do not
// re-encode the messages' V field; decoders stamp V=ProtocolV back
// onto decoded messages. All payload scalars are
// fixed-width big-endian — u64 for integers (two's complement for
// signed), IEEE-754 bits for float64, a single strict 0|1 byte for
// bools, u16 length + bytes for strings. No varints: a fixed-width
// encoding has exactly one byte representation per value, which is
// what lets FuzzDecodeFrame assert that every accepted frame re-encodes
// byte-identically.

// Frame types. Requests are odd, their responses even; FrameError is
// the out-of-band failure answer to any request.
const (
	FrameAssignReq       byte = 0x01
	FrameAssignResp      byte = 0x02
	FrameScrapeReq       byte = 0x03
	FrameReportResp      byte = 0x04
	FrameLeaseReq        byte = 0x05
	FrameLeaseResp       byte = 0x06
	FrameRegisterReq     byte = 0x07
	FrameRegisterResp    byte = 0x08
	FrameVoteReq         byte = 0x09
	FrameVoteResp        byte = 0x0a
	FrameLeaderReq       byte = 0x0b
	FrameLeaderResp      byte = 0x0c
	FrameBatchScrapeReq  byte = 0x0d
	FrameBatchScrapeResp byte = 0x0e
	FrameBatchGrantReq   byte = 0x0f
	FrameBatchGrantResp  byte = 0x10
	// Shard↔global trunk frames of the two-tier budget tree (see
	// docs/WIRE.md §6): the global apportioner scrapes shard summaries
	// and grants shard budgets over the same framing.
	FrameShardReportReq  byte = 0x11
	FrameShardReportResp byte = 0x12
	FrameShardBudgetReq  byte = 0x13
	FrameShardBudgetResp byte = 0x14
	FrameError           byte = 0x7f
)

const (
	frameMagic0    = 'P'
	frameMagic1    = 'W'
	frameHeaderLen = 8
)

// maxBatchEntries bounds one batch frame's fan-out; bigger fleets are
// chunked by the coordinator.
const maxBatchEntries = 4096

// maxBodyBytes bounds a unary frame's payload. The largest legitimate
// one is a report carrying a cap-utility curve (a few hundred points);
// a megabyte is two orders of magnitude of headroom.
const maxBodyBytes = 1 << 20

// maxBatchPayload bounds batch frames, which may carry a whole fleet's
// reports (curves included) in one payload.
const maxBatchPayload = 16 << 20

// framePayloadLimit returns the payload bound for a frame type.
func framePayloadLimit(ftype byte) int {
	switch ftype {
	case FrameBatchScrapeReq, FrameBatchScrapeResp, FrameBatchGrantReq, FrameBatchGrantResp,
		FrameShardReportResp:
		// Shard report responses carry a whole shard's aggregate curve,
		// so they take the batch bound, not the unary one.
		return maxBatchPayload
	}
	return maxBodyBytes
}

func validFrameType(ftype byte) bool {
	return (ftype >= FrameAssignReq && ftype <= FrameShardBudgetResp) || ftype == FrameError
}

// appendFrameHeader appends a frame header whose type and payload
// length are still zero. The payload is appended straight after it and
// finishFrame then patches both in place, so a frame is built in one
// buffer with no size pre-pass and no copy to prepend eight bytes.
func appendFrameHeader(b []byte) []byte {
	return append(b, frameMagic0, frameMagic1, ProtocolV, 0, 0, 0, 0, 0)
}

// finishFrame stamps the type and payload length of the one frame that
// starts at frame[0] and returns it.
func finishFrame(frame []byte, ftype byte) []byte {
	frame[3] = ftype
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(frame)-frameHeaderLen))
	return frame
}

// EncodeFrame wraps payload in a length-prefixed frame of type ftype.
func EncodeFrame(ftype byte, payload []byte) []byte {
	b := appendFrameHeader(make([]byte, 0, frameHeaderLen+len(payload)))
	return finishFrame(append(b, payload...), ftype)
}

// DecodeFrame parses one frame off the front of data, returning its
// type, payload, and any remaining bytes. It rejects bad magic, a
// foreign protocol version, unknown frame types, and payloads past the
// type's bound.
func DecodeFrame(data []byte) (ftype byte, payload, rest []byte, err error) {
	if len(data) < frameHeaderLen {
		return 0, nil, nil, fmt.Errorf("ctrlplane: frame truncated at %d bytes (want %d-byte header)", len(data), frameHeaderLen)
	}
	if data[0] != frameMagic0 || data[1] != frameMagic1 {
		return 0, nil, nil, fmt.Errorf("ctrlplane: bad frame magic %#02x%02x", data[0], data[1])
	}
	if data[2] != ProtocolV {
		return 0, nil, nil, fmt.Errorf("ctrlplane: frame protocol v%d, want v%d", data[2], ProtocolV)
	}
	ftype = data[3]
	if !validFrameType(ftype) {
		return 0, nil, nil, fmt.Errorf("ctrlplane: unknown frame type %#02x", ftype)
	}
	n := int(binary.BigEndian.Uint32(data[4:8]))
	if n > framePayloadLimit(ftype) {
		return 0, nil, nil, fmt.Errorf("ctrlplane: frame payload %d bytes exceeds %d", n, framePayloadLimit(ftype))
	}
	if len(data)-frameHeaderLen < n {
		return 0, nil, nil, fmt.Errorf("ctrlplane: frame payload truncated (%d of %d bytes)", len(data)-frameHeaderLen, n)
	}
	return ftype, data[frameHeaderLen : frameHeaderLen+n], data[frameHeaderLen+n:], nil
}

// readFrame reads one frame off a stream into *buf, the buffer its
// connection owns, and returns the payload as a slice of it — valid
// until the next readFrame on the same buffer. The buffer grows only
// after the length has been checked against the type's bound, so a
// lying header costs no memory.
func readFrame(r io.Reader, buf *[]byte) (ftype byte, payload []byte, err error) {
	if cap(*buf) < minFrameBuf {
		*buf = make([]byte, minFrameBuf)
	}
	hdr := (*buf)[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return 0, nil, fmt.Errorf("ctrlplane: bad frame magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != ProtocolV {
		return 0, nil, fmt.Errorf("ctrlplane: frame protocol v%d, want v%d", hdr[2], ProtocolV)
	}
	ftype = hdr[3]
	if !validFrameType(ftype) {
		return 0, nil, fmt.Errorf("ctrlplane: unknown frame type %#02x", ftype)
	}
	n := int(binary.BigEndian.Uint32(hdr[4:8]))
	if n > framePayloadLimit(ftype) {
		return 0, nil, fmt.Errorf("ctrlplane: frame payload %d bytes exceeds %d", n, framePayloadLimit(ftype))
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return ftype, payload, nil
}

// minFrameBuf is the smallest frame buffer a connection keeps: every
// unary frame fits, so only batch and trunk frames ever grow one.
const minFrameBuf = 1024

// frameBuf is a frame buffer its connection owns across frames, with a
// bound on what it may pin: a conn that once carried a near-limit frame
// must not hold that buffer for its idle lifetime. Every
// frameBufWindow frames the buffer is compared with the largest frame of
// that window and dropped when it is more than four times as large; the
// next frame then allocates to its own size. The window is what keeps a
// conn that alternates a large scrape reply with a small grant reply
// from dropping and regrowing its buffer every interval.
type frameBuf struct {
	b            []byte
	peak, frames int
}

const frameBufWindow = 16

// handled records one frame of n bytes through the buffer.
func (f *frameBuf) handled(n int) {
	f.peak = max(f.peak, n)
	if f.frames++; f.frames < frameBufWindow {
		return
	}
	if cap(f.b) > 4*max(f.peak, minFrameBuf) {
		f.b = nil
	}
	f.peak, f.frames = 0, 0
}

// wbuf appends fixed-width big-endian scalars.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)     { w.b = append(w.b, v) }
func (w *wbuf) u16(v uint16)  { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *wbuf) u32(v uint32)  { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64)  { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)   { w.u64(uint64(v)) }
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wbuf) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wbuf) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

// rbuf consumes fixed-width big-endian scalars with a latched error,
// so decoders read a whole message unconditionally and check once.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ctrlplane: "+format, args...)
	}
}

func (r *rbuf) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail("payload truncated at byte %d (want %d more)", r.off, n)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *rbuf) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *rbuf) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint16(p)
}

func (r *rbuf) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint32(p)
}

func (r *rbuf) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func (r *rbuf) i64() int64   { return int64(r.u64()) }
func (r *rbuf) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *rbuf) integer() int { return int(r.i64()) }

// boolean insists on 0|1 — any other byte would decode true but
// re-encode as 1, breaking the one-representation-per-value property.
func (r *rbuf) boolean() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("bool byte not 0|1")
		return false
	}
}

func (r *rbuf) str() string {
	n := int(r.u16())
	p := r.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// strHeld is str for a destination that already holds a value: when
// the wire repeats held it is returned as is, so a string that never
// changes (an agent's version, a standing error) is not materialised
// again on every frame.
func (r *rbuf) strHeld(held string) string {
	p := r.take(int(r.u16()))
	if p == nil {
		return ""
	}
	if string(p) == held {
		return held
	}
	return string(p)
}

// curve reads n cap points (what names them in the lying-count error).
// held is the curve the destination carried before: when the wire
// repeats it point for point, held itself is returned — a static curve
// costs a comparison and stays pointer-stable for whoever kept it.
// Otherwise the points land in a fresh slice, never in held's backing
// array: a member, an apportioner snapshot or a caller may still be
// reading it.
func (r *rbuf) curve(n int, held []cluster.CapPoint, what string) []cluster.CapPoint {
	if r.err == nil && n*24 > len(r.b)-r.off {
		r.fail("%s count %d exceeds payload", what, n)
	}
	p := r.take(n * 24)
	if len(p) == 0 {
		return nil
	}
	u64 := binary.BigEndian.Uint64
	same := len(held) == n
	for i := 0; same && i < n; i++ {
		q, h := p[24*i:], held[i]
		same = u64(q) == math.Float64bits(h.CapW) && u64(q[8:]) == math.Float64bits(h.Perf) && u64(q[16:]) == math.Float64bits(h.GridW)
	}
	if same {
		return held
	}
	out := make([]cluster.CapPoint, n)
	for i := range out {
		q := p[24*i:]
		out[i] = cluster.CapPoint{
			CapW:  math.Float64frombits(u64(q)),
			Perf:  math.Float64frombits(u64(q[8:])),
			GridW: math.Float64frombits(u64(q[16:])),
		}
	}
	return out
}

// slots resizes a decode destination's slice to n elements, reusing its
// backing array when that is large enough. Elements keep whatever they
// last held: the decoders overwrite every field of every slot.
func slots[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// done returns the latched error, or rejects trailing bytes — the
// binary mirror of decodeStrict's dec.More() check.
func (r *rbuf) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("ctrlplane: %d trailing bytes after message", len(r.b)-r.off)
	}
	return nil
}

// --- scrape request ---

// scrapeRequest asks one agent for its report, ticking its replay
// clock to t first when hasT is set. server names the agent on a shared
// listener.
type scrapeRequest struct {
	server int
	t      float64
	hasT   bool
}

// Validate enforces the scrape invariants, the unary twin of
// BatchScrapeRequest.Validate.
func (r scrapeRequest) Validate() error {
	if r.server < 0 {
		return fmt.Errorf("ctrlplane: scrape server %d", r.server)
	}
	if r.hasT && (!finite(r.t) || r.t < 0) {
		return fmt.Errorf("ctrlplane: scrape time %g", r.t)
	}
	if !r.hasT && r.t != 0 {
		return fmt.Errorf("ctrlplane: scrape time %g without hasT", r.t)
	}
	return nil
}

func appendScrapeReq(b []byte, req scrapeRequest) []byte {
	w := wbuf{b: b}
	w.i64(int64(req.server))
	w.boolean(req.hasT)
	w.f64(req.t)
	return w.b
}

func decodeScrapeReq(p []byte) (scrapeRequest, error) {
	r := rbuf{b: p}
	req := scrapeRequest{server: r.integer(), hasT: r.boolean(), t: r.f64()}
	if err := r.done(); err != nil {
		return scrapeRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return scrapeRequest{}, err
	}
	return req, nil
}

// --- Report ---

// curveMetaFlag is the high bit of the report's curve-count u32: set
// when the curve carries learning metadata (confidence + observed
// cells), which then follows the curve points. Legacy encoders never
// set the bit, so frames without meta decode unchanged; the canonical
// rule — bit set if and only if the meta is non-zero, enforced both
// ways — keeps one byte representation per value even for reports
// embedded mid-stream in batch responses.
const curveMetaFlag = uint32(1) << 31

func putReport(w *wbuf, rep *Report) {
	w.i64(int64(rep.Server))
	w.u64(rep.Epoch)
	w.u64(rep.Seq)
	w.f64(rep.CapW)
	w.f64(rep.PerfN)
	w.f64(rep.GridW)
	w.f64(rep.SoC)
	w.boolean(rep.Fenced)
	w.boolean(rep.SafeMode)
	w.f64(rep.IdleFloorW)
	w.f64(rep.NameplateW)
	w.str(rep.Version)
	hasMeta := rep.CurveConf != 0 || rep.CurveCells != 0
	cnt := uint32(len(rep.UtilityCurve))
	if hasMeta {
		cnt |= curveMetaFlag
	}
	w.u32(cnt)
	for _, p := range rep.UtilityCurve {
		w.f64(p.CapW)
		w.f64(p.Perf)
		w.f64(p.GridW)
	}
	if hasMeta {
		w.f64(rep.CurveConf)
		w.u32(uint32(rep.CurveCells))
	}
	w.u64(rep.Iv)
}

// getReport decodes one report into *rep, overwriting every field. The
// version and the curve are kept when the wire repeats what *rep already
// holds (see strHeld, curve).
func getReport(r *rbuf, rep *Report) {
	rep.V = ProtocolV
	rep.Server = r.integer()
	rep.Epoch = r.u64()
	rep.Seq = r.u64()
	rep.CapW = r.f64()
	rep.PerfN = r.f64()
	rep.GridW = r.f64()
	rep.SoC = r.f64()
	rep.Fenced = r.boolean()
	rep.SafeMode = r.boolean()
	rep.IdleFloorW = r.f64()
	rep.NameplateW = r.f64()
	rep.Version = r.strHeld(rep.Version)
	cw := r.u32()
	rep.UtilityCurve = r.curve(int(cw&^curveMetaFlag), rep.UtilityCurve, "curve")
	rep.CurveConf, rep.CurveCells = 0, 0
	if cw&curveMetaFlag != 0 {
		rep.CurveConf = r.f64()
		rep.CurveCells = int(r.u32())
		if r.err == nil && rep.CurveConf == 0 && rep.CurveCells == 0 {
			// A set flag over all-zero meta would re-encode without the
			// flag; reject the non-canonical form.
			r.fail("curve meta flag set over zero meta")
		}
	}
	rep.Iv = r.u64()
}

func appendReportPayload(b []byte, rep *Report) []byte {
	w := wbuf{b: b}
	putReport(&w, rep)
	return w.b
}

// decodeReportPayload decodes into *rep; on error its contents are
// unspecified.
func decodeReportPayload(p []byte, rep *Report) error {
	r := rbuf{b: p}
	getReport(&r, rep)
	if err := r.done(); err != nil {
		return err
	}
	return rep.Validate()
}

// --- AssignRequest / AssignResponse ---

func appendAssignReq(b []byte, req AssignRequest) []byte {
	w := wbuf{b: b}
	w.u64(req.Epoch)
	w.u64(req.Seq)
	w.i64(int64(req.Server))
	w.f64(req.T)
	w.f64(req.CapW)
	w.u64(req.Iv)
	w.u64(req.LeaseIv)
	w.f64(req.IvS)
	return w.b
}

func decodeAssignReqPayload(p []byte) (AssignRequest, error) {
	r := rbuf{b: p}
	var req AssignRequest
	req.V = ProtocolV
	req.Epoch = r.u64()
	req.Seq = r.u64()
	req.Server = r.integer()
	req.T = r.f64()
	req.CapW = r.f64()
	req.Iv = r.u64()
	req.LeaseIv = r.u64()
	req.IvS = r.f64()
	if err := r.done(); err != nil {
		return AssignRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return AssignRequest{}, err
	}
	return req, nil
}

func putAssignResp(w *wbuf, resp AssignResponse) {
	w.i64(int64(resp.Server))
	w.u64(resp.Epoch)
	w.u64(resp.Seq)
	w.boolean(resp.Applied)
	w.f64(resp.CapW)
	w.f64(resp.PerfN)
	w.f64(resp.GridW)
	w.f64(resp.SoC)
	w.boolean(resp.Fenced)
	w.boolean(resp.SafeMode)
	w.u64(resp.Iv)
}

func getAssignResp(r *rbuf) AssignResponse {
	var resp AssignResponse
	resp.V = ProtocolV
	resp.Server = r.integer()
	resp.Epoch = r.u64()
	resp.Seq = r.u64()
	resp.Applied = r.boolean()
	resp.CapW = r.f64()
	resp.PerfN = r.f64()
	resp.GridW = r.f64()
	resp.SoC = r.f64()
	resp.Fenced = r.boolean()
	resp.SafeMode = r.boolean()
	resp.Iv = r.u64()
	return resp
}

func appendAssignRespPayload(b []byte, resp AssignResponse) []byte {
	w := wbuf{b: b}
	putAssignResp(&w, resp)
	return w.b
}

func decodeAssignRespPayload(p []byte) (AssignResponse, error) {
	r := rbuf{b: p}
	resp := getAssignResp(&r)
	if err := r.done(); err != nil {
		return AssignResponse{}, err
	}
	return resp, nil
}

// --- LeaseRequest / LeaseResponse ---

func appendLeaseReq(b []byte, req LeaseRequest) []byte {
	w := wbuf{b: b}
	w.u64(req.Epoch)
	w.i64(int64(req.Server))
	w.f64(req.T)
	w.u64(req.Iv)
	w.u64(req.LeaseIv)
	w.f64(req.IvS)
	return w.b
}

func decodeLeaseReqPayload(p []byte) (LeaseRequest, error) {
	r := rbuf{b: p}
	var req LeaseRequest
	req.V = ProtocolV
	req.Epoch = r.u64()
	req.Server = r.integer()
	req.T = r.f64()
	req.Iv = r.u64()
	req.LeaseIv = r.u64()
	req.IvS = r.f64()
	if err := r.done(); err != nil {
		return LeaseRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return LeaseRequest{}, err
	}
	return req, nil
}

func appendLeaseRespPayload(b []byte, resp LeaseResponse) []byte {
	w := wbuf{b: b}
	w.u64(resp.Epoch)
	w.i64(int64(resp.Server))
	w.f64(resp.CapW)
	w.u64(resp.ExpiresIv)
	w.boolean(resp.Fenced)
	w.u64(resp.Iv)
	return w.b
}

func decodeLeaseRespPayload(p []byte) (LeaseResponse, error) {
	r := rbuf{b: p}
	var resp LeaseResponse
	resp.V = ProtocolV
	resp.Epoch = r.u64()
	resp.Server = r.integer()
	resp.CapW = r.f64()
	resp.ExpiresIv = r.u64()
	resp.Fenced = r.boolean()
	resp.Iv = r.u64()
	if err := r.done(); err != nil {
		return LeaseResponse{}, err
	}
	return resp, nil
}

// --- RegisterRequest / RegisterResponse ---

func appendRegisterReq(b []byte, req RegisterRequest) []byte {
	w := wbuf{b: b}
	w.i64(int64(req.Server))
	w.str(req.URL)
	w.f64(req.NameplateW)
	return w.b
}

func decodeRegisterReqPayload(p []byte) (RegisterRequest, error) {
	r := rbuf{b: p}
	var req RegisterRequest
	req.V = ProtocolV
	req.Server = r.integer()
	req.URL = r.str()
	req.NameplateW = r.f64()
	if err := r.done(); err != nil {
		return RegisterRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return RegisterRequest{}, err
	}
	return req, nil
}

func appendRegisterRespPayload(b []byte, resp RegisterResponse) []byte {
	w := wbuf{b: b}
	w.i64(int64(resp.Server))
	w.boolean(resp.Accepted)
	w.u64(resp.Epoch)
	w.boolean(resp.Leader)
	w.str(resp.LeaderID)
	return w.b
}

func decodeRegisterRespPayload(p []byte) (RegisterResponse, error) {
	r := rbuf{b: p}
	var resp RegisterResponse
	resp.V = ProtocolV
	resp.Server = r.integer()
	resp.Accepted = r.boolean()
	resp.Epoch = r.u64()
	resp.Leader = r.boolean()
	resp.LeaderID = r.str()
	if err := r.done(); err != nil {
		return RegisterResponse{}, err
	}
	return resp, nil
}

// --- VoteRequest / VoteResponse ---

func putWireTerm(w *wbuf, t WireTerm) {
	w.u64(t.Epoch)
	w.str(t.Leader)
	w.i64(t.ExpiresUnixNano)
}

func getWireTerm(r *rbuf) WireTerm {
	var t WireTerm
	t.Epoch = r.u64()
	t.Leader = r.str()
	t.ExpiresUnixNano = r.i64()
	return t
}

func appendVoteReq(b []byte, req VoteRequest) []byte {
	w := wbuf{b: b}
	w.str(req.Phase)
	w.u64(req.Ballot)
	w.boolean(req.Term != nil)
	if req.Term != nil {
		putWireTerm(&w, *req.Term)
	}
	return w.b
}

func decodeVoteReqPayload(p []byte) (VoteRequest, error) {
	r := rbuf{b: p}
	var req VoteRequest
	req.V = ProtocolV
	req.Phase = r.str()
	req.Ballot = r.u64()
	if r.boolean() {
		t := getWireTerm(&r)
		req.Term = &t
	}
	if err := r.done(); err != nil {
		return VoteRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return VoteRequest{}, err
	}
	return req, nil
}

func appendVoteRespPayload(b []byte, resp VoteResponse) []byte {
	w := wbuf{b: b}
	w.boolean(resp.Granted)
	w.u64(resp.Promise)
	w.u64(resp.AcceptedBallot)
	w.boolean(resp.Term != nil)
	if resp.Term != nil {
		putWireTerm(&w, *resp.Term)
	}
	return w.b
}

func decodeVoteRespPayload(p []byte) (VoteResponse, error) {
	r := rbuf{b: p}
	var resp VoteResponse
	resp.V = ProtocolV
	resp.Granted = r.boolean()
	resp.Promise = r.u64()
	resp.AcceptedBallot = r.u64()
	if r.boolean() {
		t := getWireTerm(&r)
		resp.Term = &t
	}
	if err := r.done(); err != nil {
		return VoteResponse{}, err
	}
	if err := resp.Validate(); err != nil {
		return VoteResponse{}, err
	}
	return resp, nil
}

// --- LeaderStatus (FrameLeaderReq carries an empty payload) ---

func appendLeaderStatusPayload(b []byte, st LeaderStatus) []byte {
	w := wbuf{b: b}
	w.str(st.ID)
	w.str(st.LeaderID)
	w.u64(st.Epoch)
	w.boolean(st.Leader)
	w.i64(int64(st.Failovers))
	return w.b
}

func decodeLeaderStatusPayload(p []byte) (LeaderStatus, error) {
	r := rbuf{b: p}
	var st LeaderStatus
	st.V = ProtocolV
	st.ID = r.str()
	st.LeaderID = r.str()
	st.Epoch = r.u64()
	st.Leader = r.boolean()
	st.Failovers = r.integer()
	if err := r.done(); err != nil {
		return LeaderStatus{}, err
	}
	return st, nil
}

// --- FrameError payload: one error string ---

func appendErrPayload(b []byte, msg string) []byte {
	w := wbuf{b: b}
	w.str(msg)
	return w.b
}

func decodeErrPayload(p []byte) (string, error) {
	r := rbuf{b: p}
	msg := r.str()
	if err := r.done(); err != nil {
		return "", err
	}
	return msg, nil
}

// --- batch messages (binary-only; see docs/WIRE.md §5) ---

// BatchScrapeRequest asks one endpoint for many agents' reports in a
// single frame: the shared replay instant plus the fleet slice living
// behind that listener.
type BatchScrapeRequest struct {
	V       int
	T       float64
	HasT    bool
	Servers []int
}

// Validate enforces the batch-scrape invariants.
func (r BatchScrapeRequest) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: batch scrape protocol v%d, want v%d", r.V, ProtocolV)
	}
	if r.HasT && (!finite(r.T) || r.T < 0) {
		return fmt.Errorf("ctrlplane: batch scrape time %g", r.T)
	}
	if !r.HasT && r.T != 0 {
		return fmt.Errorf("ctrlplane: batch scrape time %g without hasT", r.T)
	}
	if len(r.Servers) == 0 || len(r.Servers) > maxBatchEntries {
		return fmt.Errorf("ctrlplane: batch scrape of %d servers (want 1..%d)", len(r.Servers), maxBatchEntries)
	}
	for _, s := range r.Servers {
		if s < 0 {
			return fmt.Errorf("ctrlplane: batch scrape server %d", s)
		}
	}
	return nil
}

// ScrapeResult is one agent's slot in a batch-scrape response: either
// its report or the per-agent error, never both.
type ScrapeResult struct {
	Server int
	Err    string
	Report Report // valid when Err == ""
}

// BatchScrapeResponse answers a BatchScrapeRequest slot-for-slot.
type BatchScrapeResponse struct {
	V       int
	Results []ScrapeResult
}

// BatchGrantRequest fans one interval's grants to every agent behind
// an endpoint in a single frame. Entries marked Renew coalesce the
// renewal round-trip: the server renews, checks the renewal held the
// requested budget, and falls through to a fresh assign under this
// frame's (Epoch, Seq) when it did not — exactly the coordinator's
// unary renew-else-assign sequence, one hop shorter.
type BatchGrantRequest struct {
	V     int
	Epoch uint64
	Seq   uint64
	T     float64
	// Iv/LeaseIv/IvS carry the protocol-clock triple shared by every
	// entry in the frame (one mint interval per fan-out).
	Iv      uint64
	LeaseIv uint64
	IvS     float64
	Entries []GrantEntry
}

// GrantEntry is one agent's budget in a batch grant.
type GrantEntry struct {
	Server int
	CapW   float64
	Renew  bool
}

// Validate enforces the batch-grant invariants (the per-entry fields
// feed AssignRequest/LeaseRequest validation server-side, so the same
// bounds apply here).
func (r BatchGrantRequest) Validate() error {
	if r.V != ProtocolV {
		return fmt.Errorf("ctrlplane: batch grant protocol v%d, want v%d", r.V, ProtocolV)
	}
	if r.Epoch == 0 {
		return fmt.Errorf("ctrlplane: batch grant epoch 0 (epochs start at 1)")
	}
	if r.Seq == 0 {
		return fmt.Errorf("ctrlplane: batch grant seq 0 (sequence numbers start at 1)")
	}
	if !finite(r.T) || r.T < 0 {
		return fmt.Errorf("ctrlplane: batch grant time %g", r.T)
	}
	if err := validateClockFields(r.Iv, r.LeaseIv, r.IvS); err != nil {
		return fmt.Errorf("ctrlplane: batch grant %w", err)
	}
	if len(r.Entries) == 0 || len(r.Entries) > maxBatchEntries {
		return fmt.Errorf("ctrlplane: batch grant of %d entries (want 1..%d)", len(r.Entries), maxBatchEntries)
	}
	for _, e := range r.Entries {
		if e.Server < 0 {
			return fmt.Errorf("ctrlplane: batch grant server %d", e.Server)
		}
		if !finite(e.CapW) || e.CapW < 0 {
			return fmt.Errorf("ctrlplane: batch grant cap %g W", e.CapW)
		}
	}
	return nil
}

// GrantResult is one agent's slot in a batch-grant response. Renewed
// reports that the coalesced renewal held (the lease moved and the
// budget matched); otherwise Resp is the assign acknowledgement and
// the coordinator applies its usual granted criterion.
type GrantResult struct {
	Server  int
	Err     string
	Renewed bool
	Resp    AssignResponse // valid when Err == ""
}

// BatchGrantResponse answers a BatchGrantRequest slot-for-slot.
type BatchGrantResponse struct {
	V       int
	Results []GrantResult
}

func appendBatchScrapeReq(b []byte, req BatchScrapeRequest) []byte {
	w := wbuf{b: b}
	w.f64(req.T)
	w.boolean(req.HasT)
	w.u32(uint32(len(req.Servers)))
	for _, s := range req.Servers {
		w.i64(int64(s))
	}
	return w.b
}

// decodeBatchScrapeReqPayload decodes into *req, reusing its Servers
// capacity (the server keeps one per connection); on error its contents
// are unspecified.
func decodeBatchScrapeReqPayload(p []byte, req *BatchScrapeRequest) error {
	r := rbuf{b: p}
	req.V = ProtocolV
	req.T = r.f64()
	req.HasT = r.boolean()
	n := int(r.u32())
	if r.err == nil && n*8 > len(r.b)-r.off {
		r.fail("batch scrape count %d exceeds payload", n)
	}
	if r.err == nil {
		req.Servers = slots(req.Servers, n)
		for i := range req.Servers {
			req.Servers[i] = r.integer()
		}
	}
	if err := r.done(); err != nil {
		return err
	}
	return req.Validate()
}

// putScrapeResult encodes one batch-scrape response slot: the report
// when errMsg is empty, the per-agent error otherwise.
func putScrapeResult(w *wbuf, server int, errMsg string, rep *Report) {
	w.i64(int64(server))
	w.str(errMsg)
	if errMsg == "" {
		putReport(w, rep)
	}
}

// minBatchResultBytes is the least one batch response slot occupies on
// the wire: the server id and the error string's length prefix. A count
// the remaining payload cannot hold at that rate is refused before the
// result slice is allocated.
const minBatchResultBytes = 10

// batchRespCount reads a batch response's slot count and bounds it by
// maxBatchEntries and by what the rest of the payload can hold.
func batchRespCount(r *rbuf, what string) int {
	n := int(r.u32())
	if r.err == nil && n > maxBatchEntries {
		r.fail("batch %s response count %d exceeds %d", what, n, maxBatchEntries)
	}
	if r.err == nil && n*minBatchResultBytes > len(r.b)-r.off {
		r.fail("batch %s response count %d exceeds payload", what, n)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// decodeBatchScrapeRespPayload decodes into *resp, reusing its Results
// capacity and overwriting every slot in full, so nothing a slot's
// previous occupant held — an error, a curve, curve meta — survives into
// this reply. On error the contents are unspecified.
func decodeBatchScrapeRespPayload(p []byte, resp *BatchScrapeResponse) error {
	r := rbuf{b: p}
	resp.V = ProtocolV
	resp.Results = slots(resp.Results, batchRespCount(&r, "scrape"))
	for i := 0; i < len(resp.Results) && r.err == nil; i++ {
		res := &resp.Results[i]
		res.Server = r.integer()
		res.Err = r.strHeld(res.Err)
		if res.Err != "" {
			res.Report = Report{}
			continue
		}
		getReport(&r, &res.Report)
		if r.err == nil {
			if err := res.Report.Validate(); err != nil {
				return err
			}
		}
	}
	return r.done()
}

func appendBatchGrantReq(b []byte, req BatchGrantRequest) []byte {
	w := wbuf{b: b}
	w.u64(req.Epoch)
	w.u64(req.Seq)
	w.f64(req.T)
	w.u64(req.Iv)
	w.u64(req.LeaseIv)
	w.f64(req.IvS)
	w.u32(uint32(len(req.Entries)))
	for _, e := range req.Entries {
		w.i64(int64(e.Server))
		w.f64(e.CapW)
		w.boolean(e.Renew)
	}
	return w.b
}

// decodeBatchGrantReqPayload decodes into *req, reusing its Entries
// capacity; on error its contents are unspecified.
func decodeBatchGrantReqPayload(p []byte, req *BatchGrantRequest) error {
	r := rbuf{b: p}
	req.V = ProtocolV
	req.Epoch = r.u64()
	req.Seq = r.u64()
	req.T = r.f64()
	req.Iv = r.u64()
	req.LeaseIv = r.u64()
	req.IvS = r.f64()
	n := int(r.u32())
	if r.err == nil && n*17 > len(r.b)-r.off {
		r.fail("batch grant count %d exceeds payload", n)
	}
	if r.err == nil {
		req.Entries = slots(req.Entries, n)
		for i := range req.Entries {
			req.Entries[i] = GrantEntry{Server: r.integer(), CapW: r.f64(), Renew: r.boolean()}
		}
	}
	if err := r.done(); err != nil {
		return err
	}
	return req.Validate()
}

// putGrantResult encodes one batch-grant response slot: the renewed
// flag and the acknowledgement when errMsg is empty, the per-agent error
// otherwise.
func putGrantResult(w *wbuf, server int, errMsg string, renewed bool, resp AssignResponse) {
	w.i64(int64(server))
	w.str(errMsg)
	if errMsg == "" {
		w.boolean(renewed)
		putAssignResp(w, resp)
	}
}

// decodeBatchGrantRespPayload decodes into *resp under the same
// contract as decodeBatchScrapeRespPayload.
func decodeBatchGrantRespPayload(p []byte, resp *BatchGrantResponse) error {
	r := rbuf{b: p}
	resp.V = ProtocolV
	resp.Results = slots(resp.Results, batchRespCount(&r, "grant"))
	for i := 0; i < len(resp.Results) && r.err == nil; i++ {
		res := &resp.Results[i]
		res.Server = r.integer()
		res.Err = r.strHeld(res.Err)
		res.Renewed, res.Resp = false, AssignResponse{}
		if res.Err == "" {
			res.Renewed = r.boolean()
			res.Resp = getAssignResp(&r)
		}
	}
	return r.done()
}

// --- shard↔global trunk messages (binary-only; see docs/WIRE.md §6) ---

func appendShardReportReq(b []byte, req ShardReportRequest) []byte {
	w := wbuf{b: b}
	w.i64(int64(req.Shard))
	w.boolean(req.HasT)
	w.f64(req.T)
	w.u64(req.Iv)
	return w.b
}

func decodeShardReportReqPayload(p []byte) (ShardReportRequest, error) {
	r := rbuf{b: p}
	var req ShardReportRequest
	req.V = ProtocolV
	req.Shard = r.integer()
	req.HasT = r.boolean()
	req.T = r.f64()
	req.Iv = r.u64()
	if err := r.done(); err != nil {
		return ShardReportRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return ShardReportRequest{}, err
	}
	return req, nil
}

func appendShardReportPayload(b []byte, rep ShardReport) []byte {
	w := wbuf{b: b}
	w.i64(int64(rep.Shard))
	w.u64(rep.Epoch)
	w.u64(rep.Seq)
	w.f64(rep.T)
	w.boolean(rep.Leading)
	w.i64(int64(rep.Agents))
	w.f64(rep.FloorW)
	w.f64(rep.DemandW)
	w.f64(rep.UsedW)
	w.f64(rep.CapW)
	w.f64(rep.BudgetW)
	w.boolean(rep.Starved)
	w.u32(uint32(len(rep.Curve)))
	for _, p := range rep.Curve {
		w.f64(p.CapW)
		w.f64(p.Perf)
		w.f64(p.GridW)
	}
	w.u64(rep.GEpoch)
	w.u64(rep.GSeq)
	w.u64(rep.GIv)
	return w.b
}

// decodeShardReportPayload decodes into *rep, overwriting every field;
// the curve is kept when the wire repeats what *rep already holds (see
// rbuf.curve). On error the contents are unspecified.
func decodeShardReportPayload(p []byte, rep *ShardReport) error {
	r := rbuf{b: p}
	rep.V = ProtocolV
	rep.Shard = r.integer()
	rep.Epoch = r.u64()
	rep.Seq = r.u64()
	rep.T = r.f64()
	rep.Leading = r.boolean()
	rep.Agents = r.integer()
	rep.FloorW = r.f64()
	rep.DemandW = r.f64()
	rep.UsedW = r.f64()
	rep.CapW = r.f64()
	rep.BudgetW = r.f64()
	rep.Starved = r.boolean()
	rep.Curve = r.curve(int(r.u32()), rep.Curve, "shard curve")
	rep.GEpoch = r.u64()
	rep.GSeq = r.u64()
	rep.GIv = r.u64()
	if err := r.done(); err != nil {
		return err
	}
	return rep.Validate()
}

func appendShardBudgetReq(b []byte, req ShardBudgetRequest) []byte {
	w := wbuf{b: b}
	w.u64(req.Epoch)
	w.u64(req.Seq)
	w.i64(int64(req.Shard))
	w.f64(req.T)
	w.f64(req.CapW)
	w.u64(req.Iv)
	w.u64(req.LeaseIv)
	w.f64(req.IvS)
	return w.b
}

func decodeShardBudgetReqPayload(p []byte) (ShardBudgetRequest, error) {
	r := rbuf{b: p}
	var req ShardBudgetRequest
	req.V = ProtocolV
	req.Epoch = r.u64()
	req.Seq = r.u64()
	req.Shard = r.integer()
	req.T = r.f64()
	req.CapW = r.f64()
	req.Iv = r.u64()
	req.LeaseIv = r.u64()
	req.IvS = r.f64()
	if err := r.done(); err != nil {
		return ShardBudgetRequest{}, err
	}
	if err := req.Validate(); err != nil {
		return ShardBudgetRequest{}, err
	}
	return req, nil
}

func appendShardBudgetRespPayload(b []byte, resp ShardBudgetResponse) []byte {
	w := wbuf{b: b}
	w.i64(int64(resp.Shard))
	w.u64(resp.Epoch)
	w.u64(resp.Seq)
	w.boolean(resp.Applied)
	w.f64(resp.CapW)
	w.u64(resp.Iv)
	return w.b
}

func decodeShardBudgetRespPayload(p []byte) (ShardBudgetResponse, error) {
	r := rbuf{b: p}
	var resp ShardBudgetResponse
	resp.V = ProtocolV
	resp.Shard = r.integer()
	resp.Epoch = r.u64()
	resp.Seq = r.u64()
	resp.Applied = r.boolean()
	resp.CapW = r.f64()
	resp.Iv = r.u64()
	if err := r.done(); err != nil {
		return ShardBudgetResponse{}, err
	}
	return resp, nil
}
