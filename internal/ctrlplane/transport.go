package ctrlplane

import (
	"context"
	"fmt"
	"net/http"
	"strings"
)

// Transport is the client side of one wire encoding of the v2 control
// protocol. Every method performs exactly one attempt against the
// endpoint at base; retries, backoff, circuit breaking, and telemetry
// accounting above the wire live in rpcClient and the coordinator, so
// the two implementations (JSON-over-HTTP and binary frames over
// pooled TCP) stay semantically interchangeable. Implementations must
// honor ctx deadlines and be safe for concurrent use.
type Transport interface {
	// Scrape ticks the agent's replay clock to t (when hasT is set) and
	// returns its report. server names the agent on shared listeners;
	// the JSON transport addresses agents by URL and ignores it.
	Scrape(ctx context.Context, base string, server int, t float64, hasT bool) (Report, error)
	Assign(ctx context.Context, base string, req AssignRequest) (AssignResponse, error)
	Renew(ctx context.Context, base string, req LeaseRequest) (LeaseResponse, error)
	Register(ctx context.Context, base string, req RegisterRequest) (RegisterResponse, error)
	Vote(ctx context.Context, base string, req VoteRequest) (VoteResponse, error)
	Leader(ctx context.Context, base string) (LeaderStatus, error)
	// Name labels the transport in telemetry and errors ("json", "binary").
	Name() string
	// Close releases pooled connections. The transport is unusable after.
	Close()
}

// TransportKind selects a wire encoding on the CLI and in fleet
// helpers. The kind only picks defaults — the actual encoding used for
// any one endpoint is chosen per URL scheme (http/https vs tcp), so
// mixed fleets work.
type TransportKind int

const (
	// TransportJSON is HTTP/JSON: the debug/curl surface and fuzz target.
	TransportJSON TransportKind = iota
	// TransportBinary is length-prefixed binary frames over pooled TCP.
	TransportBinary
)

func (k TransportKind) String() string {
	switch k {
	case TransportJSON:
		return "json"
	case TransportBinary:
		return "binary"
	}
	return fmt.Sprintf("transport(%d)", int(k))
}

// Scheme returns the URL scheme the kind dials.
func (k TransportKind) Scheme() string {
	if k == TransportBinary {
		return "tcp"
	}
	return "http"
}

// ParseTransport parses a -transport flag value.
func ParseTransport(name string) (TransportKind, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "json", "http":
		return TransportJSON, nil
	case "binary", "bin", "tcp":
		return TransportBinary, nil
	}
	return TransportJSON, fmt.Errorf("ctrlplane: unknown transport %q (want json or binary)", name)
}

// DefaultScheme prefixes addr with the kind's scheme when addr has
// none, so CLI address lists may mix bare host:port tokens with
// explicit http:// or tcp:// URLs.
func (k TransportKind) DefaultScheme(addr string) string {
	if addr == "" || strings.Contains(addr, "://") {
		return addr
	}
	return k.Scheme() + "://" + addr
}

// BinaryURL reports whether base selects the binary framing.
func BinaryURL(base string) bool {
	return strings.HasPrefix(base, "tcp://")
}

// wireDialer bundles one client per encoding and picks by URL scheme.
type wireDialer struct {
	json *jsonTransport
	bin  *binaryTransport
}

// newWireDialer builds both transports. rt overrides the JSON HTTP
// round-tripper (fault-injection shims); nil gets the pooled default.
func newWireDialer(rt http.RoundTripper, tel *ctrlTel) *wireDialer {
	if tel == nil {
		tel = &ctrlTel{}
	}
	return &wireDialer{json: newJSONTransport(rt, tel), bin: newBinaryTransport(tel)}
}

func (d *wireDialer) forURL(base string) Transport {
	if BinaryURL(base) {
		return d.bin
	}
	return d.json
}

func (d *wireDialer) Close() {
	d.json.Close()
	d.bin.Close()
}
