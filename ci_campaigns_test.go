package powerstruggle

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"powerstruggle/internal/scenario"
)

// replayLineRE matches a CI line that replays one campaign: psscenario
// with -family or -drill NAME and -replay.
var replayLineRE = regexp.MustCompile(`psscenario\b.*-(family|drill) ([a-z0-9-]+)\b.*-replay`)

// TestCIRunsEveryCampaign holds .github/workflows/ci.yml to replaying
// every scenario family and every pinned drill at least once.
func TestCIRunsEveryCampaign(t *testing.T) {
	b, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	replayed := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		if m := replayLineRE.FindStringSubmatch(line); m != nil {
			replayed[m[1]+" "+m[2]] = true
		}
	}
	for _, f := range scenario.Families() {
		if !replayed["family "+string(f)] {
			t.Errorf("ci.yml replays no campaign of family %s: add `psscenario -family %s -seed N -replay`", f, f)
		}
	}
	for _, d := range scenario.Drills() {
		if !replayed["drill "+d] {
			t.Errorf("ci.yml does not replay drill %s: add `psscenario -drill %s -seed 7 -replay`", d, d)
		}
	}
}
