package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// Goldens for the experiments whose worlds are derived by editing another
// world (degraded copies, yearly growth steps) rather than generated
// directly. Each is the sha256 of the experiment's exact output.
const (
	// goldenSensitivitySHA pins every Sensitivity row at the getEnv scale.
	goldenSensitivitySHA = "1ce1f86d5ca6b54625b8b06c6768c43873f506243370c7e47b7e73d89e2481fa"
	// goldenTimelineSHA pins runTimeline's text at goldenTimelineScale.
	goldenTimelineSHA   = "7d0627c58c4659a03e7c3e4afc27420c89e6e9c6383cb8ba595406cb7a341fe4"
	goldenTimelineScale = 0.012
)

func TestSensitivityGolden(t *testing.T) {
	rows, err := Sensitivity(getEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintln(h, r.Cloud, r.MissFrac, r.Reach, r.Pct)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSensitivitySHA {
		t.Fatalf("sensitivity digest %s, golden %s", got, goldenSensitivitySHA)
	}
}

func TestTimelineGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := runTimeline(&Env{Scale: goldenTimelineScale}, &buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenTimelineSHA {
		t.Fatalf("timeline digest %s, golden %s; output:\n%s", got, goldenTimelineSHA, buf.String())
	}
}
