// Command psd runs the power-struggle mediator as a daemon: the
// simulated platform advances in wall-clock time and an HTTP API drives
// it — the paper's Accountant with curl as the cluster manager.
//
//	psd -listen :8080 -cap 100 -policy app+res+esd &
//	curl -s localhost:8080/apps
//	curl -s -X POST localhost:8080/admit -d '{"app":"STREAM"}'
//	curl -s -X POST localhost:8080/admit -d '{"app":"kmeans","seconds":120}'
//	curl -s -X POST localhost:8080/admit -d '{"app":"ferret","weight":2,"floorPerf":0.8}'
//	curl -s -X POST localhost:8080/cap -d '{"watts":80}'
//	curl -s localhost:8080/status
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"powerstruggle/internal/buildinfo"
	"powerstruggle/internal/cf"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/daemon"
	"powerstruggle/internal/faults"
	"powerstruggle/internal/policy"
	"powerstruggle/internal/telemetry"
)

var policies = map[string]policy.Kind{
	"util-unaware": policy.UtilUnaware,
	"server+res":   policy.ServerResAware,
	"app":          policy.AppAware,
	"app+res":      policy.AppResAware,
	"app+res+esd":  policy.AppResESDAware,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("psd: ")
	var (
		listen  = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		capW    = flag.Float64("cap", 100, "initial power cap in watts")
		polName = flag.String("policy", "app+res", "mediation policy")
		battery = flag.Float64("battery", 300e3, "lead-acid battery capacity in joules (0 for none)")
		tick    = flag.Duration("tick", 50*time.Millisecond, "simulation tick")
		speed   = flag.Float64("speed", 1, "simulated seconds per wall-clock second")

		faultSeed     = flag.Int64("fault-seed", 1, "fault-injection random seed")
		faultKnobFail = flag.Float64("fault-knob-fail", 0, "probability a knob/suspend write fails transiently")
		faultStuck    = flag.Float64("fault-stuck-dvfs", 0, "probability a DVFS transition silently sticks")
		faultBeatDrop = flag.Float64("fault-beat-drop", 0, "probability a heartbeat batch is lost")

		telemetryOn = flag.Bool("telemetry", true, "instrument the control loop (/metrics registry, /trace spans)")
		telemRing   = flag.Int("telemetry-ring", 0, "span ring size in events (0: 65536)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")

		ctrlServer    = flag.Int("ctrl-server", -1, "join a pscoord control plane as this fleet index (-1: standalone); answers assign/report/lease frames on -ctrl-binary-listen and renders GET /ctrl/report as JSON for curl")
		ctrlFence     = flag.Float64("ctrl-fence", 0, "cap to boot at, and to clamp to when the coordinator's draw lease lapses (0: the platform idle floor)")
		ctrlDecay     = flag.Float64("ctrl-safemode-decay", 0, "leaderless safe mode: watts per second to decay the held cap after lease lapse (0: cliff straight to the fence cap)")
		ctrlHold      = flag.Float64("ctrl-safemode-hold", 0, "leaderless safe mode: seconds to hold the last granted cap before decaying (aged in whole coordinator intervals)")
		ctrlFloor     = flag.Float64("ctrl-safemode-floor", 0, "leaderless safe mode: decay target in watts (0: the fence cap)")
		ctrlLearn     = flag.Float64("ctrl-learn", 0, "online utility learning: epsilon-greedy probe fraction in (0,1]; the daemon joins curveless, self-caps at or below its grants to sample its cap-utility curve, and reports the learned curve with its coverage (0: report the pre-characterized curve)")
		ctrlLearnSeed = flag.Int64("ctrl-learn-seed", 1, "probe-sequence seed for -ctrl-learn: the same seed replays the same probe order")
		ctrlAnnounce  = flag.String("ctrl-announce", "", "comma-separated coordinator -binary-listen addresses (host:port or tcp://host:port) to register with at boot (every one, so standbys are warm too)")
		ctrlAdvert    = flag.String("ctrl-advertise", "", "tcp:// URL coordinators should dial back (default: the bound -ctrl-binary-listen address)")
		ctrlBinary    = flag.String("ctrl-binary-listen", "", "serve the control plane's frames on this TCP address (required with -ctrl-server)")

		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	pol, ok := policies[strings.ToLower(*polName)]
	if !ok {
		log.Fatalf("unknown policy %q", *polName)
	}
	var fcfg *faults.Config
	if *faultKnobFail > 0 || *faultStuck > 0 || *faultBeatDrop > 0 {
		fcfg = &faults.Config{
			Seed:           *faultSeed,
			KnobWriteFailP: *faultKnobFail,
			StuckDVFSP:     *faultStuck,
			BeatDropP:      *faultBeatDrop,
		}
	}
	var hub *telemetry.Hub
	if *telemetryOn {
		hub = telemetry.New(*telemRing)
	}
	d, err := daemon.New(daemon.Config{
		Policy: pol, InitialCapW: *capW, BatteryJ: *battery, Faults: fcfg,
		Telemetry: hub,
	})
	if err != nil {
		log.Fatal(err)
	}
	var binSrv *ctrlplane.BinaryServer
	if *ctrlServer >= 0 {
		if *ctrlBinary == "" {
			log.Fatal("-ctrl-server needs -ctrl-binary-listen (the address coordinators send frames to)")
		}
		cfg := daemon.CtrlConfig{
			ServerID: *ctrlServer, FenceCapW: *ctrlFence,
			SafeMode: ctrlplane.SafeModeConfig{
				HoldS: *ctrlHold, DecayWPerS: *ctrlDecay, FloorW: *ctrlFloor,
			},
		}
		if *ctrlLearn > 0 {
			cfg.Learn = &cf.OnlineConfig{Epsilon: *ctrlLearn, Seed: *ctrlLearnSeed}
		}
		if err := d.EnableCtrl(cfg); err != nil {
			log.Fatal(err)
		}
		if cfg.Learn != nil {
			log.Printf("online utility learning enabled: epsilon %.2f, seed %d", *ctrlLearn, *ctrlLearnSeed)
		}
		if cfg.SafeMode.Enabled() {
			log.Printf("control plane enabled: fleet index %d, safe-mode decay on lease lapse", *ctrlServer)
		} else {
			log.Printf("control plane enabled: fleet index %d, fencing on lease lapse", *ctrlServer)
		}
		ep, err := d.CtrlEndpoint()
		if err != nil {
			log.Fatal(err)
		}
		binSrv, err = ctrlplane.StartBinaryServer(*ctrlBinary, ctrlplane.BinaryServerConfig{
			Endpoints: map[int]ctrlplane.CtrlEndpoint{*ctrlServer: ep},
		})
		if err != nil {
			log.Fatalf("binary listener: %v", err)
		}
		defer binSrv.Close()
		log.Printf("serving control frames on %s", binSrv.URL())
	} else if *ctrlAnnounce != "" || *ctrlBinary != "" {
		log.Fatal("-ctrl-announce and -ctrl-binary-listen need -ctrl-server (the fleet index to serve as)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *ctrlAnnounce != "" {
		coords := strings.Split(*ctrlAnnounce, ",")
		for i := range coords {
			coords[i] = ctrlplane.DefaultScheme(strings.TrimSpace(coords[i]))
		}
		advert := *ctrlAdvert
		if advert == "" {
			advert = binSrv.URL()
		}
		req := ctrlplane.RegisterRequest{V: ctrlplane.ProtocolV, Server: *ctrlServer, URL: advert}
		// Announce in the background with retries: the daemon must come
		// up and mediate even while every coordinator is still booting.
		go func() {
			for {
				resp, err := ctrlplane.Announce(ctx, coords, req, 2*time.Second)
				if err == nil {
					log.Printf("registered as fleet index %d at %s (leader %q, epoch %d)",
						*ctrlServer, advert, resp.LeaderID, resp.Epoch)
					return
				}
				log.Printf("announce: %v (retrying)", err)
				select {
				case <-ctx.Done():
					return
				case <-time.After(2 * time.Second):
				}
			}
		}()
	}

	go func() {
		ticker := time.NewTicker(*tick)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				if err := d.Advance(tick.Seconds() * *speed); err != nil {
					// Keep the control surface up: /healthz reports the
					// latched error while telemetry stays queryable.
					log.Printf("simulation halted: %v", err)
					return
				}
			}
		}
	}()

	handler := d.Handler()
	if *pprofOn {
		// The pprof import registers on the default mux; mount it beside
		// the daemon API instead of exposing the whole default mux.
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		outer.Handle("/debug/pprof/", http.DefaultServeMux)
		handler = outer
	}

	// Conservative timeouts keep one stuck or malicious client from
	// pinning a connection (and its goroutine) forever.
	srv := &http.Server{
		Addr:              *listen,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	log.Printf("mediating on %s (policy %v, cap %.0f W)", *listen, pol, *capW)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("shut down cleanly")
}
