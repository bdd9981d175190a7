package ctrlplane

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"powerstruggle/internal/cluster"
)

// Binary framing of the v5 control protocol (see docs/WIRE.md).
//
// Every frame is:
//
//	'P' 'W' | version u8 | type u8 | payload length u32 BE | payload
//
// The header carries the protocol version once, so payloads do not
// re-encode the messages' V field; decoding stamps V=ProtocolV back
// onto the message. Each message lists its fields once, in a walk
// (func (m *T) wire(w *wire)) that both encodes and decodes; walk is the
// table of them all. All payload scalars are fixed-width big-endian — u64 for integers (two's complement for
// signed), IEEE-754 bits for float64, a single strict 0|1 byte for
// bools, u16 length + bytes for strings. No varints: a fixed-width
// encoding has exactly one byte representation per value, which is
// what lets FuzzDecodeFrame assert that every accepted frame re-encodes
// byte-identically.

// Frame types. Requests are odd and a request's response is the next,
// even, type (exchange relies on it); FrameError is the out-of-band
// failure answer to any request. v4 retired 0x01–0x06 (the one-agent
// scrape, assign and lease frames) and 0x0b/0x0c (the leader probe): an
// agent speaks only batch frames, and the numbers are not reused.
const (
	FrameRegisterReq     byte = 0x07
	FrameRegisterResp    byte = 0x08
	FrameVoteReq         byte = 0x09
	FrameVoteResp        byte = 0x0a
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

// maxBodyBytes bounds every request frame's payload and every reply
// that does not carry curves. The largest legitimate requests are a full
// batch grant (4 096 entries of 17 bytes, about 70 KB) and a full batch
// scrape (about 33 KB); a megabyte is an order of magnitude of headroom.
const maxBodyBytes = 1 << 20

// maxBatchPayload bounds the replies that carry curves: a batch scrape
// reply holds a whole listener's reports, a shard report a whole shard's
// aggregate curve, and a batch grant reply takes the same bound.
const maxBatchPayload = 16 << 20

// framePayloadLimit returns the payload bound for a frame type.
func framePayloadLimit(ftype byte) int {
	switch ftype {
	case FrameBatchScrapeResp, FrameBatchGrantResp, FrameShardReportResp:
		return maxBatchPayload
	}
	return maxBodyBytes
}

func validFrameType(ftype byte) bool {
	return (ftype >= FrameRegisterReq && ftype <= FrameVoteResp) ||
		(ftype >= FrameBatchScrapeReq && ftype <= FrameShardBudgetResp) || ftype == FrameError
}

// parseHeader checks a frame header — magic, version, type, and the
// payload length against the type's bound — and returns the type and
// length. DecodeFrame and readFrame both call it before they touch a
// payload byte; it allocates only to report an error.
func parseHeader(hdr []byte) (ftype byte, n int, err error) {
	if hdr[0] != frameMagic0 || hdr[1] != frameMagic1 {
		return 0, 0, fmt.Errorf("ctrlplane: bad frame magic %#02x%02x", hdr[0], hdr[1])
	}
	if hdr[2] != ProtocolV {
		return 0, 0, fmt.Errorf("ctrlplane: frame protocol v%d, want v%d", hdr[2], ProtocolV)
	}
	ftype = hdr[3]
	if !validFrameType(ftype) {
		return 0, 0, fmt.Errorf("ctrlplane: unknown frame type %#02x", ftype)
	}
	// Compared as a u32: on a 32-bit int a length past 2³¹ would turn
	// negative and pass.
	length, limit := binary.BigEndian.Uint32(hdr[4:8]), framePayloadLimit(ftype)
	if length > uint32(limit) {
		return 0, 0, fmt.Errorf("ctrlplane: frame payload %d bytes exceeds %d", length, limit)
	}
	return ftype, int(length), nil
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
	ftype, n, err := parseHeader(data)
	if err != nil {
		return 0, nil, nil, err
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
	ftype, n, err := parseHeader(hdr)
	if err != nil {
		return 0, nil, err
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
// register, vote and shard-budget frame fits, and so does a batch frame
// for a handful of members; larger batches and shard reports grow it.
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

// wire is the cursor one message walk moves over a payload, in either
// direction: encoding appends to b, decoding reads b at off with a
// latched error, so a walk visits a whole message unconditionally and
// its caller checks once. Every primitive takes a pointer to the field it
// carries and stores through it only when decoding — an encoded message
// may be shared read-only between goroutines.
type wire struct {
	enc bool
	b   []byte
	off int
	err error
}

// fail latches the first decode error and drops what is left of the
// payload, so every later read comes up short without a reader having to
// ask whether an error is latched.
func (w *wire) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("ctrlplane: "+format, args...)
		w.b, w.off = nil, 0
	}
}

// short latches the truncation error of a read of n bytes.
func (w *wire) short(n int) {
	w.fail("payload truncated at byte %d (want %d more)", w.off, n)
}

// take returns the next n payload bytes, or nil once the payload is
// short.
func (w *wire) take(n int) []byte {
	b := w.b[w.off:]
	if len(b) < n {
		w.short(n)
		return nil
	}
	w.off += n
	return b[:n]
}

// The scalars are a walk's inner loop, and what they cost is whether
// they inline: each keeps its encode half — an append — in line and its
// decode half in a reader of its own (get64, getF64, getBool), too large
// to be inlined back. A reader wrapping another would be inlined into its
// scalar, over the inliner's budget, or cost decoding a second call.

func (w *wire) get64() uint64 {
	b := w.b[w.off:]
	if len(b) < 8 {
		w.short(8)
		return 0
	}
	w.off += 8
	return binary.BigEndian.Uint64(b)
}

func (w *wire) getF64() float64 {
	b := w.b[w.off:]
	if len(b) < 8 {
		w.short(8)
		return 0
	}
	w.off += 8
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

// getBool insists on 0|1 — any other byte would decode true but
// re-encode as 1, breaking the one-representation-per-value property.
func (w *wire) getBool(v *bool) {
	*v = false
	b := w.b[w.off:]
	if len(b) == 0 {
		w.short(1)
		return
	}
	w.off++
	switch b[0] {
	case 0:
	case 1:
		*v = true
	default:
		w.fail("bool byte not 0|1")
	}
}

func (w *wire) u64(v *uint64) {
	if w.enc {
		w.b = binary.BigEndian.AppendUint64(w.b, *v)
	} else {
		*v = w.get64()
	}
}

func (w *wire) i64(v *int64) {
	if w.enc {
		w.b = binary.BigEndian.AppendUint64(w.b, uint64(*v))
	} else {
		*v = int64(w.get64())
	}
}

// integer carries an int as an i64.
func (w *wire) integer(v *int) {
	if w.enc {
		w.b = binary.BigEndian.AppendUint64(w.b, uint64(*v))
	} else {
		*v = int(w.get64())
	}
}

func (w *wire) f64(v *float64) {
	if w.enc {
		w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(*v))
	} else {
		*v = w.getF64()
	}
}

func (w *wire) boolean(v *bool) {
	if w.enc {
		w.b = append(w.b, btou(*v))
	} else {
		w.getBool(v)
	}
}

func btou(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func (w *wire) u32(v *uint32) {
	if w.enc {
		w.b = binary.BigEndian.AppendUint32(w.b, *v)
	} else if p := w.take(4); p != nil {
		*v = binary.BigEndian.Uint32(p)
	}
}

// str carries a u16 length and that many bytes. A destination that
// already holds the string the wire repeats keeps it, so one that never
// changes (an agent's version, a standing error) is not materialised
// again on every frame.
func (w *wire) str(s *string) {
	if w.enc {
		v := *s
		if len(v) > math.MaxUint16 {
			v = v[:math.MaxUint16]
		}
		w.b = append(binary.BigEndian.AppendUint16(w.b, uint16(len(v))), v...)
		return
	}
	var n int
	if p := w.take(2); p != nil {
		n = int(binary.BigEndian.Uint16(p))
	}
	if p := w.take(n); string(p) != *s {
		*s = string(p)
	}
}

// version stamps the frame header's protocol version onto a decoded
// message; payloads do not carry it.
func (w *wire) version(v *int) {
	if !w.enc {
		*v = ProtocolV
	}
}

// count carries a u32 element count — n when encoding — and fits refuses
// a decoded one the remaining payload cannot hold at elemBytes an element
// before anything is sized by it (what names the elements). It divides,
// never multiplies: a product wraps a 32-bit int. After a failure it is 0.
func (w *wire) count(n, elemBytes int, what string) int {
	c := uint32(n)
	w.u32(&c)
	return w.fits(c, elemBytes, what)
}

func (w *wire) fits(n uint32, elemBytes int, what string) int {
	if !w.enc && uint64(n) > uint64((len(w.b)-w.off)/elemBytes) {
		w.fail("%s count %d exceeds payload", what, n)
		return 0
	}
	return int(n)
}

// points carries n cap points. Decoding lands them in a fresh slice, never
// in the held one's backing array: a member, an apportioner snapshot or a
// caller may still be reading it.
func (w *wire) points(c *[]cluster.CapPoint, n uint32, what string) {
	if w.enc {
		for _, p := range *c {
			w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(p.CapW))
			w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(p.Perf))
			w.b = binary.BigEndian.AppendUint64(w.b, math.Float64bits(p.GridW))
		}
		return
	}
	if *c = nil; n == 0 {
		return
	}
	p := w.take(24 * w.fits(n, 24, what))
	if len(p) == 0 {
		return
	}
	u64 := binary.BigEndian.Uint64
	out := make([]cluster.CapPoint, len(p)/24)
	for i := range out {
		q := p[24*i:]
		out[i] = cluster.CapPoint{
			CapW:  math.Float64frombits(u64(q)),
			Perf:  math.Float64frombits(u64(q[8:])),
			GridW: math.Float64frombits(u64(q[16:])),
		}
	}
	*c = out
}

// A curve's count u32 carries two flag bits above its point count, each
// set if and only if its field is non-zero — one byte representation per
// value, enforced both ways: curveVerFlag, the version, which follows the
// count, and (reports only) curveMetaFlag, the learning meta — confidence
// and observed cells — which follows the points.
const (
	curveMetaFlag = uint32(1) << 31
	curveVerFlag  = uint32(1) << 30
)

// curve carries one curve: its count u32, its version behind curveVerFlag
// and its points. meta is the report's curveMetaFlag; a shard report
// passes nil, and a set high bit then reads as a count no payload holds.
func (w *wire) curve(c *[]cluster.CapPoint, ver *uint64, meta *bool, what string) {
	count := uint32(len(*c))
	if *ver != 0 {
		count |= curveVerFlag
	}
	if meta != nil && *meta {
		count |= curveMetaFlag
	}
	w.u32(&count)
	if meta != nil {
		*meta, count = count&curveMetaFlag != 0, count&^curveMetaFlag
	}
	if count&curveVerFlag == 0 {
		if !w.enc {
			*ver = 0
		}
	} else if w.u64(ver); *ver == 0 { // would re-encode without the flag
		w.fail("%s version flag set over version 0", what)
	}
	w.points(c, count&^curveVerFlag, what)
}

// slots resizes a decode destination's slice to n elements, reusing its
// backing array when that is large enough. Elements keep whatever they
// last held: the walk that follows overwrites every field of every slot.
func slots[T any](s []T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// end closes a decoded message: bytes left over are an error, and a
// message read cleanly to the end of its payload must pass validate, when
// it has one. Encoding, end does nothing.
func (w *wire) end(validate func() error) {
	if w.enc || w.err != nil {
		return
	}
	if w.off != len(w.b) {
		w.fail("%d trailing bytes after message", len(w.b)-w.off)
	} else if validate != nil {
		w.err = validate()
	}
}

// walk is the table of the wire: every message's Go type, its frame
// type, the walk that lists its fields in wire order and — for what
// crosses a trust boundary on decode: every request, shard reports and
// vote replies — its Validate (a batch scrape reply validates each
// report as its slot is decoded). The cases call concrete methods on purpose:
// through an interface m and w would both escape, and every decode into
// a stack destination would move to the heap. Validate reaches end in a
// func literal, not as the method value: a bound value receiver copies
// the message into this frame, a kilobyte over the cases that sent every
// fan-out goroutine's stack growing.
func walk(w *wire, m any) (ftype byte) {
	switch m := m.(type) {
	case *RegisterRequest:
		m.wire(w)
		w.end(func() error { return m.Validate() })
		return FrameRegisterReq
	case *RegisterResponse:
		m.wire(w)
		return FrameRegisterResp
	case *VoteRequest:
		m.wire(w)
		w.end(func() error { return m.Validate() })
		return FrameVoteReq
	case *VoteResponse:
		m.wire(w)
		w.end(func() error { return m.Validate() })
		return FrameVoteResp
	case *BatchScrapeRequest:
		m.wire(w)
		w.end(func() error { return m.Validate() })
		return FrameBatchScrapeReq
	case *BatchScrapeResponse:
		m.wire(w)
		return FrameBatchScrapeResp
	case *BatchGrantRequest:
		m.wire(w)
		w.end(func() error { return m.Validate() })
		return FrameBatchGrantReq
	case *BatchGrantResponse:
		m.wire(w)
		return FrameBatchGrantResp
	case *ShardReportRequest:
		m.wire(w)
		w.end(func() error { return m.Validate() })
		return FrameShardReportReq
	case *ShardReport:
		m.wire(w)
		w.end(func() error { return m.Validate() })
		return FrameShardReportResp
	case *ShardBudgetRequest:
		m.wire(w)
		w.end(func() error { return m.Validate() })
		return FrameShardBudgetReq
	case *ShardBudgetResponse:
		m.wire(w)
		return FrameShardBudgetResp
	case *frameRemoteError:
		w.str(&m.msg)
		return FrameError
	}
	// A constant: formatting m here would make every caller's message
	// escape.
	panic("ctrlplane: walk of a type that is not a wire message")
}

// encode appends m's payload to b and returns the extended slice, like
// append, with m's frame type. It stores nothing to m.
func encode(b []byte, m any) ([]byte, byte) {
	w := wire{enc: true, b: b}
	ftype := walk(&w, m)
	return w.b, ftype
}

// decode reads payload p into *m, overwriting every field — a
// destination is reused across retries, duplicated deliveries and
// intervals — but for the strings and curves the wire repeats (see str,
// points). p is valid only for the call: nothing decoded aliases it. On
// error *m is unspecified.
func decode(p []byte, m any) error {
	w := wire{b: p}
	walk(&w, m)
	w.end(nil)
	return w.err
}

// --- agent slots (the types are wire.go's): a report rides a batch
// scrape reply, an acknowledgement a batch grant reply ---

func (m *Report) wire(w *wire) {
	w.version(&m.V)
	w.integer(&m.Server)
	w.u64(&m.Epoch)
	w.u64(&m.Seq)
	w.f64(&m.CapW)
	w.f64(&m.PerfN)
	w.f64(&m.GridW)
	w.f64(&m.SoC)
	w.boolean(&m.Fenced)
	w.boolean(&m.SafeMode)
	w.f64(&m.IdleFloorW)
	w.f64(&m.NameplateW)
	w.str(&m.Version)
	meta := m.CurveConf != 0 || m.CurveCells != 0
	w.curve(&m.UtilityCurve, &m.CurveVer, &meta, "curve")
	if meta {
		cells := uint32(m.CurveCells)
		w.f64(&m.CurveConf)
		w.u32(&cells)
		if !w.enc {
			m.CurveCells = int(cells)
			if m.CurveConf == 0 && cells == 0 {
				// A set flag over all-zero meta would re-encode without
				// the flag; reject the non-canonical form.
				w.fail("curve meta flag set over zero meta")
			}
		}
	} else if !w.enc {
		m.CurveConf, m.CurveCells = 0, 0
	}
	w.u64(&m.Iv)
}

func (m *AssignResponse) wire(w *wire) {
	w.version(&m.V)
	w.integer(&m.Server)
	w.u64(&m.Epoch)
	w.u64(&m.Seq)
	w.boolean(&m.Applied)
	w.f64(&m.CapW)
	w.f64(&m.PerfN)
	w.f64(&m.GridW)
	w.f64(&m.SoC)
	w.boolean(&m.Fenced)
	w.boolean(&m.SafeMode)
	w.u64(&m.Iv)
}

// --- coordinator messages: registration and votes ---

func (m *RegisterRequest) wire(w *wire) {
	w.version(&m.V)
	w.integer(&m.Server)
	w.str(&m.URL)
	w.f64(&m.NameplateW)
}

func (m *RegisterResponse) wire(w *wire) {
	w.version(&m.V)
	w.integer(&m.Server)
	w.boolean(&m.Accepted)
	w.u64(&m.Epoch)
	w.boolean(&m.Leader)
	w.str(&m.LeaderID)
}

// term carries an optional WireTerm behind its presence flag.
func (w *wire) term(t **WireTerm) {
	has := *t != nil
	w.boolean(&has)
	if !w.enc {
		*t = nil
		if has {
			*t = new(WireTerm)
		}
	}
	if has {
		w.u64(&(*t).Epoch)
		w.str(&(*t).Leader)
		w.i64(&(*t).ExpiresUnixNano)
	}
}

func (m *VoteRequest) wire(w *wire) {
	w.version(&m.V)
	w.str(&m.Phase)
	w.u64(&m.Ballot)
	w.term(&m.Term)
}

func (m *VoteResponse) wire(w *wire) {
	w.version(&m.V)
	w.boolean(&m.Granted)
	w.u64(&m.Promise)
	w.u64(&m.AcceptedBallot)
	w.term(&m.Term)
}

// --- batch messages (see docs/WIRE.md §5) ---

// BatchScrapeRequest asks one endpoint for many agents' reports in a
// single frame: the shared replay instant plus the fleet slice living
// behind that listener.
type BatchScrapeRequest struct {
	V       int
	T       float64
	HasT    bool
	Servers []int
	// Held is the curve version the scraper holds for each of Servers (0:
	// none), or empty — never all 0. A slot whose curve has the held
	// version answers with the version and no points.
	Held []uint64
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
	if n := len(r.Held); n != 0 && (n != len(r.Servers) || slices.Max(r.Held) == 0) {
		return fmt.Errorf("ctrlplane: batch scrape holds %d curve versions for %d servers (want none, or one each and not all 0)", n, len(r.Servers))
	}
	return nil
}

// The request walks reuse the destination's Servers / Entries capacity:
// the server keeps one of each per connection.
func (m *BatchScrapeRequest) wire(w *wire) {
	w.version(&m.V)
	w.f64(&m.T)
	w.boolean(&m.HasT)
	if n := w.count(len(m.Servers), 8, "batch scrape"); !w.enc {
		m.Servers = slots(m.Servers, n)
	}
	for i := range m.Servers {
		w.integer(&m.Servers[i])
	}
	if n := w.count(len(m.Held), 8, "batch scrape held"); !w.enc {
		m.Held = slots(m.Held, n)
	}
	for i := range m.Held {
		w.u64(&m.Held[i])
	}
}

// ScrapeResult is one agent's slot in a batch-scrape response: either
// its report or the per-agent error, never both.
type ScrapeResult struct {
	Server int
	Err    string
	Report Report // valid when Err == ""
}

// wire is one response slot: the report follows only an empty error, and
// is validated as it is decoded.
func (m *ScrapeResult) wire(w *wire) {
	w.integer(&m.Server)
	w.str(&m.Err)
	if m.Err == "" {
		m.Report.wire(w)
		if !w.enc && w.err == nil {
			w.err = m.Report.Validate()
		}
	} else if !w.enc {
		m.Report = Report{}
	}
}

// BatchScrapeResponse answers a BatchScrapeRequest slot-for-slot.
type BatchScrapeResponse struct {
	V       int
	Results []ScrapeResult
}

// minBatchResultBytes is the least one batch response slot occupies on
// the wire: the server id and the error string's length prefix.
const minBatchResultBytes = 10

// slotCount is count for a batch response, whose slots size the
// destination's result slab: a decoded count is also held to
// maxBatchEntries.
func (w *wire) slotCount(n int, what string) int {
	n = w.count(n, minBatchResultBytes, what)
	if !w.enc && n > maxBatchEntries {
		w.fail("%s count %d exceeds %d", what, n, maxBatchEntries)
		return 0
	}
	return n
}

// The response walks reuse the destination's Results capacity and
// overwrite every slot in full, so nothing a slot's previous occupant
// held — an error, a curve, curve meta — survives into this reply.
func (m *BatchScrapeResponse) wire(w *wire) {
	w.version(&m.V)
	if n := w.slotCount(len(m.Results), "batch scrape response"); !w.enc {
		m.Results = slots(m.Results, n)
	}
	for i := 0; i < len(m.Results) && w.err == nil; i++ {
		m.Results[i].wire(w)
	}
}

// BatchGrantRequest fans one interval's grants to every agent behind
// an endpoint in a single frame. Entries marked Renew coalesce the
// renewal round-trip: the server renews, checks the renewal held the
// requested budget, and falls through to a fresh assign under this
// frame's (Epoch, Seq) when it did not (BinaryServer.grantOne, the one
// home of the renew-else-assign rule).
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

// Validate enforces the batch-grant invariants, the bounds every grant
// and renewal an agent applies has passed.
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

func (m *BatchGrantRequest) wire(w *wire) {
	w.version(&m.V)
	w.u64(&m.Epoch)
	w.u64(&m.Seq)
	w.f64(&m.T)
	w.u64(&m.Iv)
	w.u64(&m.LeaseIv)
	w.f64(&m.IvS)
	if n := w.count(len(m.Entries), 17, "batch grant"); !w.enc {
		m.Entries = slots(m.Entries, n)
	}
	for i := range m.Entries {
		e := &m.Entries[i]
		w.integer(&e.Server)
		w.f64(&e.CapW)
		w.boolean(&e.Renew)
	}
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

// wire is one response slot: the renewed flag and the acknowledgement
// follow only an empty error.
func (m *GrantResult) wire(w *wire) {
	w.integer(&m.Server)
	w.str(&m.Err)
	if m.Err == "" {
		w.boolean(&m.Renewed)
		m.Resp.wire(w)
	} else if !w.enc {
		m.Renewed, m.Resp = false, AssignResponse{}
	}
}

// BatchGrantResponse answers a BatchGrantRequest slot-for-slot.
type BatchGrantResponse struct {
	V       int
	Results []GrantResult
}

func (m *BatchGrantResponse) wire(w *wire) {
	w.version(&m.V)
	if n := w.slotCount(len(m.Results), "batch grant response"); !w.enc {
		m.Results = slots(m.Results, n)
	}
	for i := 0; i < len(m.Results) && w.err == nil; i++ {
		m.Results[i].wire(w)
	}
}

// --- shard↔global trunk messages (see docs/WIRE.md §6; the types are
// shardwire.go's) ---

func (m *ShardReportRequest) wire(w *wire) {
	w.version(&m.V)
	w.integer(&m.Shard)
	w.boolean(&m.HasT)
	w.f64(&m.T)
	w.u64(&m.Iv)
	w.u64(&m.Held)
}

func (m *ShardReport) wire(w *wire) {
	w.version(&m.V)
	w.integer(&m.Shard)
	w.u64(&m.Epoch)
	w.u64(&m.Seq)
	w.f64(&m.T)
	w.boolean(&m.Leading)
	w.integer(&m.Agents)
	w.f64(&m.FloorW)
	w.f64(&m.DemandW)
	w.f64(&m.UsedW)
	w.f64(&m.CapW)
	w.f64(&m.BudgetW)
	w.boolean(&m.Starved)
	w.curve(&m.Curve, &m.CurveVer, nil, "shard curve")
	w.u64(&m.GEpoch)
	w.u64(&m.GSeq)
	w.u64(&m.GIv)
}

func (m *ShardBudgetRequest) wire(w *wire) {
	w.version(&m.V)
	w.u64(&m.Epoch)
	w.u64(&m.Seq)
	w.integer(&m.Shard)
	w.f64(&m.T)
	w.f64(&m.CapW)
	w.u64(&m.Iv)
	w.u64(&m.LeaseIv)
	w.f64(&m.IvS)
}

func (m *ShardBudgetResponse) wire(w *wire) {
	w.version(&m.V)
	w.integer(&m.Shard)
	w.u64(&m.Epoch)
	w.u64(&m.Seq)
	w.boolean(&m.Applied)
	w.f64(&m.CapW)
	w.u64(&m.Iv)
}
