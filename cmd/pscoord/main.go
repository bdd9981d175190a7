// Command pscoord is the cluster coordinator: it scrapes a fleet of
// psd-style agents over binary frames on TCP, apportions a cluster
// power cap across the live members, and fans the per-server budgets
// out as leased grants — the paper's Section IV-D cluster manager with
// a real network in the loop instead of a function call.
//
// Drive three local daemons under a 240 W cluster cap:
//
//	psd -listen 127.0.0.1:8081 -ctrl-server 0 -ctrl-binary-listen 127.0.0.1:9081 &
//	psd -listen 127.0.0.1:8082 -ctrl-server 1 -ctrl-binary-listen 127.0.0.1:9082 &
//	psd -listen 127.0.0.1:8083 -ctrl-server 2 -ctrl-binary-listen 127.0.0.1:9083 &
//	pscoord -agents 127.0.0.1:9081,127.0.0.1:9082,127.0.0.1:9083 \
//	        -cap 240 -interval 2s -lease-iv 2
//
// Replay a peak-shaving cap schedule instead of a constant cap:
//
//	pscoord -agents ... -capfile caps.csv -interval 1s
//
// Run a highly available pair: two coordinators share a lease file, the
// winner leads, the loser observes with warm state and takes over
// within one interval of leader silence. Agents may also self-register
// instead of being listed:
//
//	pscoord -binary-listen 127.0.0.1:7070 -ha-store /shared/pscoord-term.json -cap 240 &
//	pscoord -binary-listen 127.0.0.1:7071 -ha-store /shared/pscoord-term.json -cap 240 &
//	psd -listen 127.0.0.1:8081 -ctrl-server 0 -ctrl-binary-listen 127.0.0.1:9081 \
//	    -ctrl-announce 127.0.0.1:7070,127.0.0.1:7071
//
// Or drop the shared filesystem entirely: a -ha-members pool
// replicates the term across the coordinators themselves (each serves
// a voter at its -binary-listen address; campaigns commit on a
// majority), and -ha-priority orders who takes over a lapsed term
// first:
//
//	M=127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072
//	pscoord -binary-listen 127.0.0.1:7070 -ha-members $M -ha-priority 0 -cap 240 &
//	pscoord -binary-listen 127.0.0.1:7071 -ha-members $M -ha-priority 1 -cap 240 &
//	pscoord -binary-listen 127.0.0.1:7072 -ha-members $M -ha-priority 2 -cap 240 &
//
// -listen adds a read-only HTTP debug surface: curl <addr>/ctrl/leader
// renders the coordinator's leadership view as JSON.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pscoord: ")
	var (
		agents     = flag.String("agents", "", "comma-separated agent frame-listener addresses, host:port or tcp://host:port (fleet index follows list order), or id=addr pairs")
		strategy   = flag.String("strategy", "equal", "apportioning strategy: equal or utility")
		capW       = flag.Float64("cap", 240, "cluster power cap in watts (constant-cap mode)")
		capFile    = flag.String("capfile", "", "replay a cluster cap schedule from this CSV (seconds,value) instead of a constant cap")
		interval   = flag.Duration("interval", 2*time.Second, "control interval between fan-outs")
		leaseIv    = flag.Int("lease-iv", 2, "draw lease granted with each assignment, in control intervals: short enough that a partitioned agent fences within that many intervals, long enough (at 2) that one dropped fan-out does not fence the whole fleet; every grant carries the minting interval counter and the -interval length, and a restarted coordinator rehydrates the counter from fleet scrapes before granting")
		missK      = flag.Int("missk", 3, "consecutive failed scrapes before an agent's membership lease expires")
		inflight   = flag.Int("max-inflight", 8, "fan-out concurrency bound")
		timeout    = flag.Duration("timeout", 2*time.Second, "per-RPC attempt timeout")
		retries    = flag.Int("retries", 2, "per-RPC retries beyond the first attempt")
		brkFails   = flag.Int("breaker-fails", 0, "consecutive failed scrapes before an agent's circuit breaker opens (0: disabled)")
		brkOpen    = flag.Int("breaker-open", 0, "control intervals an open breaker skips before a half-open probe (0: default 4)")
		floorW     = flag.Float64("floor", 0, "per-server idle floor for the utility DP (0: learn from agent reports)")
		confFloor  = flag.Float64("curve-conf-floor", 0, "confidence floor for learned utility curves: a member reporting lower coverage takes the curveless even share instead of entering the utility DP (0: default 0.75; negative: admit any learned curve)")
		listen     = flag.String("listen", "", "serve GET /ctrl/leader, a read-only JSON rendering of the leadership view for curl, on this HTTP address")
		binListen  = flag.String("binary-listen", "", "serve the register/vote frames on this TCP address: agents announce to it (the fleet may then start empty) and -ha-members pools vote through it")
		haStore    = flag.String("ha-store", "", "run leader-elected on a shared term file: the path every coordinator of this cluster points at")
		haMembers  = flag.String("ha-members", "", "run leader-elected on a replicated quorum store: comma-separated voter addresses of the whole coordinator pool, this member's -binary-listen address included (no shared filesystem needed)")
		haPriority = flag.Int("ha-priority", 0, "takeover rank in the pool: 0 steals a lapsed term first, higher ranks hold off longer")
		haID       = flag.String("ha-id", "", "candidate identity in the election (default hostname-pid)")
		haTTL      = flag.Duration("ha-ttl", 0, "leadership term length (default 3x the control interval)")
		shardID    = flag.Int("shard", -1, "run as shard coordinator <id> in a two-tier tree: serve the ShardReport/ShardBudget trunk on -binary-listen and enforce the budget the global grants; -cap only bootstraps the budget until the first grant")
		globalSet  = flag.String("global", "", "run as the global apportioner over these shard trunks: comma-separated id=url[+url...] entries, the +-separated URLs one shard's coordinator set (leader plus standbys); -cap/-capfile drive the cluster cap")
		reclaim    = flag.Float64("reclaim", 0, "in -global mode, seconds a silent shard's last budget stays reserved after its membership expires (0: the budget lease)")
		verbose    = flag.Bool("v", false, "log every control interval, not just membership changes")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	if *globalSet != "" {
		if *shardID >= 0 {
			log.Fatal("-shard and -global are mutually exclusive (one tier per process)")
		}
		if err := runGlobal(*globalSet, *capW, *capFile, *interval, *leaseIv, *reclaim, *missK,
			*inflight, *timeout, *retries, *verbose); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *shardID >= 0 {
		if *binListen == "" {
			log.Fatal("-shard needs -binary-listen: the global scrapes the trunk over binary frames")
		}
		if *capFile != "" {
			log.Fatal("-shard and -capfile are exclusive: a shard's budget comes from the global; -cap only bootstraps it")
		}
	}

	var refs []ctrlplane.AgentRef
	var err error
	if strings.TrimSpace(*agents) != "" {
		refs, err = parseAgents(*agents)
		if err != nil {
			log.Fatal(err)
		}
	} else if *binListen == "" {
		log.Fatal("no agents: pass -agents addr[,addr...], or -binary-listen to build the fleet from registrations")
	}
	strat, err := ctrlplane.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}
	if *leaseIv < 1 {
		log.Fatalf("-lease-iv %d: a lease is at least one control interval", *leaseIv)
	}
	hub := telemetry.New(0)
	ccfg := ctrlplane.Config{
		Agents:               refs,
		Dynamic:              *binListen != "",
		Strategy:             strat,
		LeaseIv:              *leaseIv,
		IntervalS:            interval.Seconds(),
		MissK:                *missK,
		MaxInFlight:          *inflight,
		RPCTimeout:           *timeout,
		Retries:              *retries,
		BreakerFails:         *brkFails,
		BreakerOpenIntervals: *brkOpen,
		FloorW:               *floorW,
		CurveConfFloor:       *confFloor,
		Telemetry:            hub,
	}
	coord, err := ctrlplane.New(ccfg)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	id := *haID
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "pscoord"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ttl := *haTTL
	if ttl == 0 {
		ttl = 3 * *interval
	}

	var ha *ctrlplane.HA
	var voter *ctrlplane.QuorumVoter
	switch {
	case *haStore != "" && *haMembers != "":
		log.Fatal("-ha-store and -ha-members are mutually exclusive (one election store per cluster)")
	case *haStore != "":
		store, err := ctrlplane.NewFileElection(*haStore)
		if err != nil {
			log.Fatal(err)
		}
		ha, err = ctrlplane.NewHA(coord, ctrlplane.HAConfig{
			ID: id, Election: store, TermTTL: ttl, Priority: *haPriority,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("leader election on %s as %q (term %v, priority %d)", *haStore, id, ttl, *haPriority)
	case *haMembers != "":
		if *binListen == "" {
			log.Fatal("-ha-members needs -binary-listen: the pool reaches this member's voter there")
		}
		var voters []string
		for _, tok := range strings.Split(*haMembers, ",") {
			tok = strings.TrimSpace(tok)
			if tok == "" {
				continue
			}
			voters = append(voters, ctrlplane.DefaultScheme(tok))
		}
		voter = ctrlplane.NewQuorumVoter(hub)
		store, err := ctrlplane.NewQuorumElection(ctrlplane.QuorumConfig{
			Voters: voters, Timeout: *timeout, Telemetry: hub,
		})
		if err != nil {
			log.Fatal(err)
		}
		ha, err = ctrlplane.NewHA(coord, ctrlplane.HAConfig{
			ID: id, Election: store, TermTTL: ttl, Priority: *haPriority,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("quorum election across %d voters as %q (majority %d, term %v, priority %d)",
			len(voters), id, store.Quorum(), ttl, *haPriority)
	}

	var sc *ctrlplane.ShardCoordinator
	if *shardID >= 0 {
		scfg := ctrlplane.ShardConfig{Shard: *shardID, InitialBudgetW: *capW}
		if ha != nil {
			sc, err = ctrlplane.NewShardCoordinatorHA(ha, scfg)
		} else {
			sc, err = ctrlplane.NewShardCoordinator(coord, scfg)
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	bcfg := ctrlplane.NewCoordinatorBinaryConfig(coord, ha, voter)
	if *listen != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/ctrl/leader", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet {
				http.Error(w, "GET only", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(ctrlplane.CoordStatus(coord, ha))
		})
		srv := &http.Server{Addr: *listen, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("debug listener: %v", err)
			}
		}()
		defer srv.Close()
		log.Printf("serving GET /ctrl/leader on %s", *listen)
	}
	if *binListen != "" {
		if sc != nil {
			bcfg = sc.ShardBinaryConfig(bcfg)
		}
		bsrv, err := ctrlplane.StartBinaryServer(*binListen, bcfg)
		if err != nil {
			log.Fatalf("binary listener: %v", err)
		}
		defer bsrv.Close()
		if sc != nil {
			log.Printf("serving register/vote and shard-%d trunk frames on %s", *shardID, bsrv.URL())
		} else {
			log.Printf("serving register/vote frames on %s", bsrv.URL())
		}
	}

	var caps []trace.Point
	if *capFile != "" {
		f, err := os.Open(*capFile)
		if err != nil {
			log.Fatal(err)
		}
		caps, err = trace.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("replaying %d cap steps over %d agents (%v, lease %d intervals)", len(caps), len(refs), strat, *leaseIv)
	} else if sc != nil {
		log.Printf("shard %d driving %d agents under the granted budget (bootstrap %.0f W) every %v (%v, lease %d intervals)",
			*shardID, len(refs), *capW, *interval, strat, *leaseIv)
	} else {
		log.Printf("driving %d agents at %.0f W cluster cap every %v (%v, lease %d intervals)", len(refs), *capW, *interval, strat, *leaseIv)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	step, expired := 0, 0
	t := 0.0
	wasLeading := ha == nil
	for {
		cap := *capW
		if caps != nil {
			if step >= len(caps) {
				break
			}
			t, cap = caps[step].T, caps[step].V
		}
		var res ctrlplane.StepResult
		var err error
		switch {
		case sc != nil:
			// Shard mode: the budget in force (granted over the trunk, or
			// the -cap bootstrap) is the cap; the loop's cap math is idle.
			res, err = sc.Step(ctx, t)
		case ha != nil:
			res, err = ha.Step(ctx, t, cap)
		default:
			res, err = coord.Step(ctx, t, cap)
		}
		if err != nil {
			// A canceled step is an orderly shutdown (SIGINT/SIGTERM
			// mid-fan-out), not a failure: resign and summarize instead
			// of dying with the stats unreported.
			if ctx.Err() != nil {
				summarize(coord, ha, sc)
				return
			}
			log.Fatal(err)
		}
		if res.Leading != wasLeading {
			if res.Leading {
				log.Printf("t=%8.0fs LEADING under epoch %d (failover #%d)", res.T, res.Epoch, ha.Failovers())
			} else {
				log.Printf("t=%8.0fs observing (epoch %d%s)", res.T, res.Epoch, deposedNote(res))
			}
			wasLeading = res.Leading
		}
		alive := 0
		for _, a := range res.Alive {
			if a {
				alive++
			}
		}
		if res.Reapportioned || res.ScrapeErrs > 0 || res.AssignErrs > 0 || *verbose {
			log.Printf("t=%8.0fs cap=%7.1fW alive=%d/%d grid=%7.1fW perf=%5.1f scrapeErrs=%d assignErrs=%d%s%s",
				res.T, res.CapW, alive, len(res.Alive), res.FleetGridW, res.FleetPerfN,
				res.ScrapeErrs, res.AssignErrs, reapNote(res), errNote(res.Err))
		}
		if alive == 0 {
			expired++
			if expired >= 3 {
				log.Printf("whole fleet unreachable for %d intervals; still retrying", expired)
				expired = 0
			}
		} else {
			expired = 0
		}
		step++
		if caps == nil {
			t += interval.Seconds()
		}
		select {
		case <-ctx.Done():
			summarize(coord, ha, sc)
			return
		case <-ticker.C:
		}
	}
	summarize(coord, ha, sc)
}

func reapNote(res ctrlplane.StepResult) string {
	if !res.Reapportioned {
		return ""
	}
	return "  [re-apportioned]"
}

// errNote renders an interval's first RPC failure, if any.
func errNote(err error) string {
	if err == nil {
		return ""
	}
	return "  first error: " + err.Error()
}

func deposedNote(res ctrlplane.StepResult) string {
	if !res.Deposed {
		return ""
	}
	return ", deposed: a newer leader owns the fleet"
}

func summarize(coord *ctrlplane.Coordinator, ha *ctrlplane.HA, sc *ctrlplane.ShardCoordinator) {
	if sc != nil {
		log.Printf("shard budget in force at exit: %.1f W (starved=%v)", sc.BudgetW(), sc.Starved())
	}
	if ha != nil {
		if err := ha.Resign(); err != nil {
			log.Printf("resign: %v", err)
		}
		term, lead := ha.Leader()
		log.Printf("election: epoch %d, leading=%v, %d failovers, %d campaign errors, %d registrations",
			term.Epoch, lead, ha.Failovers(), ha.CampaignErrors(), coord.Stats().Registrations)
	}
	st := coord.Stats()
	log.Printf("done: %d steps led, %d observed, %d re-apportions, %d lease expiries, %d rejoins, %d scrape failures, %d assign failures",
		st.Steps, st.Observes, st.Reapportions, st.LeaseExpiries, st.Rejoins, st.ScrapeFailures, st.AssignFailures)
	if st.BreakerTrips > 0 {
		log.Printf("breakers: %d trips, %d skipped dials", st.BreakerTrips, st.BreakerSkips)
	}
	for _, ev := range coord.FaultEvents() {
		log.Printf("  event t=%.0fs %s %s: %s", ev.T, ev.Kind, ev.Target, ev.Detail)
	}
}

// runGlobal drives the apex of the two-tier budget tree: each interval
// it scrapes every shard coordinator's report over the binary trunk,
// splits the cluster cap across the live shards, rebalances unused
// headroom, and fans the budgets out as epoch-fenced leased grants.
func runGlobal(set string, capW float64, capFile string, interval time.Duration,
	leaseIv int, reclaim float64, missK, inflight int,
	timeout time.Duration, retries int, verbose bool) error {

	shards, err := parseShardRefs(set)
	if err != nil {
		return err
	}
	if leaseIv < 1 {
		return fmt.Errorf("-lease-iv %d: a lease is at least one control interval", leaseIv)
	}
	hub := telemetry.New(0)
	gcfg := ctrlplane.GlobalConfig{
		Shards:      shards,
		LeaseIv:     leaseIv,
		IntervalS:   interval.Seconds(),
		MissK:       missK,
		ReclaimS:    reclaim,
		MaxInFlight: inflight,
		RPCTimeout:  timeout,
		Retries:     retries,
		Telemetry:   hub,
	}
	global, err := ctrlplane.NewGlobal(gcfg)
	if err != nil {
		return err
	}
	defer global.Close()

	var caps []trace.Point
	if capFile != "" {
		f, err := os.Open(capFile)
		if err != nil {
			return err
		}
		caps, err = trace.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		log.Printf("global: replaying %d cap steps over %d shards (lease %d intervals)", len(caps), len(shards), leaseIv)
	} else {
		log.Printf("global: driving %d shards at %.0f W cluster cap every %v (lease %d intervals)",
			len(shards), capW, interval, leaseIv)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	step := 0
	t := 0.0
	summarizeGlobal := func() {
		st := global.Stats()
		log.Printf("global done: %d steps, %d shard expiries, %d rejoins, %d reclaims, %d scrape failures, %d grant failures",
			st.Steps, st.ShardExpiries, st.ShardRejoins, st.Reclaims, st.ScrapeFailures, st.GrantFailures)
		for _, ev := range global.FaultEvents() {
			log.Printf("  event t=%.0fs %s %s: %s", ev.T, ev.Kind, ev.Target, ev.Detail)
		}
	}
	for {
		cap := capW
		if caps != nil {
			if step >= len(caps) {
				break
			}
			t, cap = caps[step].T, caps[step].V
		}
		res, err := global.Step(ctx, t, cap)
		if err != nil {
			if ctx.Err() != nil {
				summarizeGlobal()
				return nil
			}
			return err
		}
		alive := 0
		var granted float64
		for i, a := range res.Alive {
			if a {
				alive++
			}
			if res.Granted[i] {
				granted += res.Budgets[i]
			}
		}
		if res.ScrapeErrs > 0 || res.GrantErrs > 0 || res.ReservedW > 0 || verbose {
			log.Printf("t=%8.0fs cap=%8.1fW granted=%8.1fW reserved=%7.1fW rebalanced=%6.1fW alive=%d/%d scrapeErrs=%d grantErrs=%d%s",
				res.T, res.CapW, granted, res.ReservedW, res.RebalancedW, alive, len(shards),
				res.ScrapeErrs, res.GrantErrs, errNote(res.Err))
		}
		step++
		if caps == nil {
			t += interval.Seconds()
		}
		select {
		case <-ctx.Done():
			summarizeGlobal()
			return nil
		case <-ticker.C:
		}
	}
	summarizeGlobal()
	return nil
}

// parseShardRefs accepts "id=url[+url...],..." — one entry per shard,
// the +-separated URLs its coordinator set in takeover order (leader
// first); scheme-less addresses become tcp://.
func parseShardRefs(s string) ([]ctrlplane.ShardRef, error) {
	var refs []ctrlplane.ShardRef
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("bad shard entry %q: want id=url[+url...]", tok)
		}
		id, err := strconv.Atoi(strings.TrimSpace(k))
		if err != nil {
			return nil, fmt.Errorf("bad shard id in %q: %v", tok, err)
		}
		var urls []string
		for _, u := range strings.Split(v, "+") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			urls = append(urls, strings.TrimSuffix(ctrlplane.DefaultScheme(u), "/"))
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("shard %d has no trunk URLs", id)
		}
		refs = append(refs, ctrlplane.ShardRef{ID: id, URLs: urls})
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("no shards: pass -global id=url[+url...],...")
	}
	return refs, nil
}

// parseAgents accepts "addr,addr,..." (IDs follow list order) or
// "id=addr,id=addr" pairs; scheme-less addresses become tcp://.
func parseAgents(s string) ([]ctrlplane.AgentRef, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("no agents: pass -agents addr[,addr...]")
	}
	var refs []ctrlplane.AgentRef
	for i, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		id, url := i, tok
		if k, v, ok := strings.Cut(tok, "="); ok {
			n, err := strconv.Atoi(strings.TrimSpace(k))
			if err != nil {
				return nil, fmt.Errorf("bad agent id in %q: %v", tok, err)
			}
			id, url = n, strings.TrimSpace(v)
		}
		url = ctrlplane.DefaultScheme(url)
		refs = append(refs, ctrlplane.AgentRef{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	return refs, nil
}
