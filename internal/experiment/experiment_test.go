package experiment

import (
	"strconv"
	"strings"
	"testing"

	"dtc/internal/metrics"
)

var quick = Options{Quick: true, Seed: 42}

// cell parses a table cell as float.
func cell(t *testing.T, tbl *metrics.Table, row, col int) float64 {
	t.Helper()
	rows := tbl.Rows()
	if row >= len(rows) || col >= len(rows[row]) {
		t.Fatalf("cell (%d,%d) out of range in\n%s", row, col, tbl)
	}
	v, err := strconv.ParseFloat(rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric in\n%s", row, col, rows[row][col], tbl)
	}
	return v
}

func TestListAndDescribe(t *testing.T) {
	ids := List()
	want := []string{"a1", "a2", "a3", "e1", "e10", "e11", "e12", "e14", "e15", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "f1", "f2", "f3", "f4", "f5", "f6"}
	if len(ids) != len(want) {
		t.Fatalf("List = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("List = %v, want %v", ids, want)
		}
		if Describe(ids[i]) == "" {
			t.Errorf("no description for %s", ids[i])
		}
	}
	if Describe("zz") != "" {
		t.Error("description for unknown id")
	}
	if _, err := Run("zz", quick); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestF1Shapes(t *testing.T) {
	tbl, err := Run("f1", quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.NumRows(); r++ {
		rateAmp := cell(t, tbl, r, 5)
		if rateAmp < 5 {
			t.Errorf("row %d: rate amplification %.1f too small\n%s", r, rateAmp, tbl)
		}
		sizeAmp := cell(t, tbl, r, 7)
		if sizeAmp < 10 {
			t.Errorf("row %d: size amplification %.1f too small\n%s", r, sizeAmp, tbl)
		}
		// The victim must never see a true attack origin among sources.
		if named := cell(t, tbl, r, 9); named != 0 {
			t.Errorf("row %d: %v true origins visible at victim\n%s", r, named, tbl)
		}
	}
}

func TestF2Shapes(t *testing.T) {
	tbl, err := Run("f2", quick)
	if err != nil {
		t.Fatal(err)
	}
	// Redirected fraction tracks owned share; row 0 (share 0) ~0%,
	// last row (share 100) ~100%.
	if got := cell(t, tbl, 0, 4); got > 1 {
		t.Errorf("share 0: redirected %.2f%%\n%s", got, tbl)
	}
	last := tbl.NumRows() - 1
	if got := cell(t, tbl, last, 4); got < 99 {
		t.Errorf("share 100: redirected %.2f%%\n%s", got, tbl)
	}
	prev := -1.0
	for r := 0; r < tbl.NumRows(); r++ {
		v := cell(t, tbl, r, 4)
		if v < prev-1 {
			t.Errorf("redirected fraction not monotone\n%s", tbl)
		}
		prev = v
	}
}

func TestF3Shapes(t *testing.T) {
	tbl, err := Run("f3", quick)
	if err != nil {
		t.Fatal(err)
	}
	noDef := cell(t, tbl, 0, 2)
	withDef := cell(t, tbl, 1, 2)
	if noDef < 90 {
		t.Errorf("without service attack delivery = %.1f%%, want ~100\n%s", noDef, tbl)
	}
	if withDef > 1 {
		t.Errorf("with service attack delivery = %.1f%%, want ~0\n%s", withDef, tbl)
	}
	for r := 0; r < 2; r++ {
		if legit := cell(t, tbl, r, 3); legit < 90 {
			t.Errorf("row %d: legit delivery %.1f%%\n%s", r, legit, tbl)
		}
	}
}

func TestF4Shapes(t *testing.T) {
	tbl, err := Run("f4", quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.NumRows(); r++ {
		if rps := cell(t, tbl, r, 2); rps < 50 {
			t.Errorf("row %d: %.0f registrations/s implausibly slow\n%s", r, rps, tbl)
		}
		p50, p99 := cell(t, tbl, r, 3), cell(t, tbl, r, 4)
		if p99 < p50 {
			t.Errorf("row %d: p99 < p50\n%s", r, tbl)
		}
	}
}

func TestF5Shapes(t *testing.T) {
	tbl, err := Run("f5", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	for r := 0; r < tbl.NumRows(); r++ {
		devices := cell(t, tbl, r, 2)
		installed := cell(t, tbl, r, 4)
		if devices != installed {
			t.Errorf("row %d: installed %v of %v devices\n%s", r, installed, devices, tbl)
		}
	}
	if !strings.Contains(rows[tbl.NumRows()-1][0], "relay") {
		t.Errorf("missing relay row\n%s", tbl)
	}
}

func TestF6Shapes(t *testing.T) {
	tbl, err := Run("f6", quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.NumRows(); r++ {
		if tbl.Rows()[r][4] != "true" {
			t.Errorf("row %d: isolation violated\n%s", r, tbl)
		}
		if mpps := cell(t, tbl, r, 3); mpps < 0.05 {
			t.Errorf("row %d: %.3f Mpkt/s implausibly slow\n%s", r, mpps, tbl)
		}
	}
}

func TestE1Shapes(t *testing.T) {
	tbl, err := Run("e1", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	// Build map placement/mode/deploy% -> reach%.
	reach := map[string]float64{}
	for r := 0; r < tbl.NumRows(); r++ {
		key := rows[r][1] + "/" + rows[r][2] + "/" + rows[r][3]
		reach[key] = cell(t, tbl, r, 5)
		// Legit delivery must stay high in every configuration.
		if legit := cell(t, tbl, r, 6); legit < 90 {
			t.Errorf("row %d: collateral on legit traffic (%.1f%%)\n%s", r, legit, tbl)
		}
	}
	base := reach["top-degree/route-based/0.000"]
	if base < 90 {
		t.Errorf("undefended reach = %.1f%%, want ~100\n%s", base, tbl)
	}
	// Route-based at 20%% of top-degree nodes must already suppress most
	// spoofed traffic (Park & Lee's claim).
	at20 := reach["top-degree/route-based/20.0"]
	if at20 > 35 {
		t.Errorf("route-based@20%% reach = %.1f%%, want <35%%\n%s", at20, tbl)
	}
	full := reach["top-degree/route-based/100.0"]
	if full > 1 {
		t.Errorf("full deployment reach = %.1f%%, want ~0\n%s", full, tbl)
	}
	// Random placement at the same fraction is weaker.
	rand20 := reach["random/route-based/20.0"]
	if rand20 <= at20 {
		t.Errorf("random (%.1f%%) should be weaker than top-degree (%.1f%%)\n%s", rand20, at20, tbl)
	}
}

func TestE2Shapes(t *testing.T) {
	tbl, err := Run("e2", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	idx := map[string]int{}
	for r := 0; r < tbl.NumRows(); r++ {
		idx[rows[r][0]] = r
	}
	calWeb := cell(t, tbl, idx["no attack"], 1)
	noneWeb := cell(t, tbl, idx["none"], 1)
	tbWeb := cell(t, tbl, idx["traceback+filter reflectors"], 1)
	tbDNS := cell(t, tbl, idx["traceback+filter reflectors"], 2)
	tcsWeb := cell(t, tbl, idx["TCS anti-spoofing"], 1)
	tcsDNS := cell(t, tbl, idx["TCS anti-spoofing"], 2)
	calDNS := cell(t, tbl, idx["no attack"], 2)

	if calWeb < 85 {
		t.Errorf("calibration web goodput %.1f%%\n%s", calWeb, tbl)
	}
	if noneWeb > calWeb-20 {
		t.Errorf("attack did not hurt: none=%.1f%% cal=%.1f%%\n%s", noneWeb, calWeb, tbl)
	}
	if tcsWeb < calWeb-10 {
		t.Errorf("TCS web goodput %.1f%% not restored (cal %.1f%%)\n%s", tcsWeb, calWeb, tbl)
	}
	if tcsDNS < calDNS-10 {
		t.Errorf("TCS dns goodput %.1f%% suffered\n%s", tcsDNS, tbl)
	}
	// Traceback-filter restores web but kills DNS (reflector collateral).
	if tbWeb < noneWeb {
		t.Errorf("traceback-filter web %.1f%% worse than none %.1f%%\n%s", tbWeb, noneWeb, tbl)
	}
	if tbDNS > 10 {
		t.Errorf("traceback-filter dns %.1f%% — expected reflector service cut off\n%s", tbDNS, tbl)
	}
}

func TestE3Shapes(t *testing.T) {
	tbl, err := Run("e3", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	idx := map[string]int{}
	for r := 0; r < tbl.NumRows(); r++ {
		idx[rows[r][0]] = r
	}
	// Pushback never engages: uplink stays far below capacity.
	if acts := cell(t, tbl, idx["pushback"], 1); acts != 0 {
		t.Errorf("pushback activated %v times on uncongested uplink\n%s", acts, tbl)
	}
	if util := cell(t, tbl, idx["pushback"], 4); util > 20 {
		t.Errorf("uplink utilization %.1f%% — scenario should be uncongested\n%s", util, tbl)
	}
	noneGood := cell(t, tbl, idx["none"], 3)
	pbGood := cell(t, tbl, idx["pushback"], 3)
	tcsGood := cell(t, tbl, idx["tcs"], 3)
	if noneGood > 70 {
		t.Errorf("undefended goodput %.1f%% — server should be exhausted\n%s", noneGood, tbl)
	}
	if pbGood > noneGood+15 {
		t.Errorf("pushback helped (%.1f%% vs %.1f%%) despite never engaging\n%s", pbGood, noneGood, tbl)
	}
	if tcsGood < 80 {
		t.Errorf("TCS goodput %.1f%%, want restored\n%s", tcsGood, tbl)
	}
}

func TestE4Shapes(t *testing.T) {
	tbl, err := Run("e4", quick)
	if err != nil {
		t.Fatal(err)
	}
	// Waste decreases monotonically with deployment and full deployment
	// saves most of it.
	prev := 1e18
	for r := 0; r < tbl.NumRows(); r++ {
		w := cell(t, tbl, r, 1)
		if w > prev*1.05 {
			t.Errorf("byte-hops not decreasing\n%s", tbl)
		}
		prev = w
		if legit := cell(t, tbl, r, 4); legit < 90 {
			t.Errorf("row %d: legit collateral (%.1f%%)\n%s", r, legit, tbl)
		}
	}
	last := tbl.NumRows() - 1
	if rel := cell(t, tbl, last, 2); rel > 40 {
		t.Errorf("full deployment still wastes %.1f%% of baseline\n%s", rel, tbl)
	}
}

func TestE5Shapes(t *testing.T) {
	tbl, err := Run("e5", quick)
	if err != nil {
		t.Fatal(err)
	}
	first := cell(t, tbl, 0, 3)
	last := cell(t, tbl, tbl.NumRows()-1, 3)
	// Trie dispatch: 100x subscribers must cost far less than 100x.
	if last < first/4 {
		t.Errorf("throughput collapsed with subscribers: %.2f -> %.2f Mpkt/s\n%s", first, last, tbl)
	}
}

func TestE6Shapes(t *testing.T) {
	tbl, err := Run("e6", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	for r := 0; r < tbl.NumRows()-1; r++ { // last row is the overhead note
		if rows[r][1] != "true" || rows[r][2] != "true" || rows[r][3] != "true" {
			t.Errorf("attempt %q not fully contained: %v\n%s", rows[r][0], rows[r], tbl)
		}
		if rows[r][4] != "false" {
			t.Errorf("attempt %q touched foreign traffic\n%s", rows[r][0], tbl)
		}
	}
}

func TestE7Shapes(t *testing.T) {
	tbl, err := Run("e7", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	// Method 1 (reply trace) names reflectors, not agents.
	if cell(t, tbl, 0, 3) != 0 {
		t.Errorf("reply trace named an agent\n%s", tbl)
	}
	if cell(t, tbl, 0, 4) == 0 {
		t.Errorf("reply trace failed to name the reflector\n%s", tbl)
	}
	// Method 3 (owner SPIE) names at least one true agent stub.
	if cell(t, tbl, 2, 3) == 0 {
		t.Errorf("owner SPIE found no agent stub: %v\n%s", rows[2], tbl)
	}
}

func TestE8Shapes(t *testing.T) {
	tbl, err := Run("e8", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	for r := 0; r < tbl.NumRows(); r++ {
		torn := cell(t, tbl, r, 3)
		defended := rows[r][0] == "TCS shield"
		if !defended && torn == 0 {
			t.Errorf("row %d: undefended sessions survived forged teardown\n%s", r, tbl)
		}
		if defended && torn != 0 {
			t.Errorf("row %d: defended sessions torn down\n%s", r, tbl)
		}
	}
}

func TestE9Shapes(t *testing.T) {
	tbl, err := Run("e9", quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.NumRows(); r++ {
		delay := cell(t, tbl, r, 1)
		if delay < 0 || delay > 200 {
			t.Errorf("row %d: detection delay %.1f ms\n%s", r, delay, tbl)
		}
		if legit := cell(t, tbl, r, 2); legit < 80 {
			t.Errorf("row %d: legit goodput %.1f%% with auto-reaction\n%s", r, legit, tbl)
		}
		if atk := cell(t, tbl, r, 3); atk > 30 {
			t.Errorf("row %d: attack delivery %.1f%% not limited\n%s", r, atk, tbl)
		}
		if tbl.Rows()[r][4] != "true" {
			t.Errorf("row %d: trigger never cleared after attack end\n%s", r, tbl)
		}
	}
}

func TestA1Shapes(t *testing.T) {
	tbl, err := Run("a1", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	idx := map[string]int{}
	for r := 0; r < tbl.NumRows(); r++ {
		idx[rows[r][0]] = r
	}
	destDNS := cell(t, tbl, idx["dest-only: rate limit backscatter"], 2)
	twoDNS := cell(t, tbl, idx["two-stage: source anti-spoofing"], 2)
	if twoDNS < 90 {
		t.Errorf("two-stage dns goodput %.1f%%\n%s", twoDNS, tbl)
	}
	if destDNS > twoDNS-20 {
		t.Errorf("dest-only should show DNS collateral: %.1f%% vs %.1f%%\n%s", destDNS, twoDNS, tbl)
	}
	destWaste := cell(t, tbl, idx["dest-only: rate limit backscatter"], 4)
	twoWaste := cell(t, tbl, idx["two-stage: source anti-spoofing"], 4)
	if twoWaste > destWaste/5 {
		t.Errorf("source-stage should erase bandwidth waste: %.3f vs %.3f MB\n%s", twoWaste, destWaste, tbl)
	}
}

func TestA2Shapes(t *testing.T) {
	tbl, err := Run("a2", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	for r := 0; r < tbl.NumRows(); r++ {
		if rows[r][1] == "MISMATCH" {
			t.Fatalf("trie and linear scan disagree\n%s", tbl)
		}
	}
	// At the largest binding count, linear scan must be dramatically slower.
	// (Find the last "linear" row explicitly: the graph-engine rows appended
	// after it have much smaller, wall-clock-noisy ratios.)
	linearRow := -1
	for r := 0; r < tbl.NumRows(); r++ {
		if rows[r][1] == "linear" {
			linearRow = r
		}
	}
	if linearRow < 0 {
		t.Fatalf("no linear row\n%s", tbl)
	}
	lastLinear := cell(t, tbl, linearRow, 4)
	if lastLinear < 5 {
		t.Errorf("linear-scan slowdown only %.1fx at max bindings\n%s", lastLinear, tbl)
	}
}

func TestA3Shapes(t *testing.T) {
	tbl, err := Run("a3", quick)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() < 2 {
		t.Fatalf("too few rows\n%s", tbl)
	}
	// Edge-only reach is never lower than route-based at the same
	// deployment (strictness only helps).
	for r := 0; r < tbl.NumRows(); r++ {
		edge := cell(t, tbl, r, 1)
		strict := cell(t, tbl, r, 2)
		if strict > edge+0.1 {
			t.Errorf("row %d: strict (%.2f%%) worse than edge-only (%.2f%%)\n%s", r, strict, edge, tbl)
		}
	}
}

func TestE10Shapes(t *testing.T) {
	tbl, err := Run("e10", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	reach := map[string]float64{}
	for r := 0; r < tbl.NumRows(); r++ {
		// topology / placement / deploy%
		reach[rows[r][0]+"/"+rows[r][2]+"/"+rows[r][3]] = cell(t, tbl, r, 5)
	}
	if reach["power-law/top-degree/0.000"] < 99 {
		t.Errorf("undefended reach = %v\n%s", reach["power-law/top-degree/0.000"], tbl)
	}
	if reach["power-law/top-degree/5.000"] > 5 {
		t.Errorf("top-degree@5%% reach = %v, want near zero\n%s", reach["power-law/top-degree/5.000"], tbl)
	}
	if reach["power-law/random/5.000"] < reach["power-law/top-degree/5.000"]+20 {
		t.Errorf("random placement should be much weaker on power-law\n%s", tbl)
	}
	// Random sweep is monotone with nested subsets.
	if reach["power-law/random/20.0"] > reach["power-law/random/5.000"]+0.1 {
		t.Errorf("random sweep not monotone\n%s", tbl)
	}
	// On Waxman (no heavy tail) the top-degree advantage largely
	// disappears: the placement effect is a power-law phenomenon.
	plGain := reach["power-law/random/5.000"] - reach["power-law/top-degree/5.000"]
	wxGain := reach["waxman/random/5.000"] - reach["waxman/top-degree/5.000"]
	if wxGain > plGain/2 {
		t.Errorf("top-degree advantage on waxman (%.1f) not much smaller than power-law (%.1f)\n%s", wxGain, plGain, tbl)
	}
}

func TestE11Shapes(t *testing.T) {
	tbl, err := Run("e11", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	idx := map[string]int{}
	for r := 0; r < tbl.NumRows(); r++ {
		idx[rows[r][0]] = r
	}
	none := cell(t, tbl, idx["none"], 1)
	rl := cell(t, tbl, idx["syn-rate-limit"], 1)
	tcs := cell(t, tbl, idx["tcs-anti-spoofing"], 1)
	if none > 70 {
		t.Errorf("undefended completion %.1f%% — table should be exhausted\n%s", none, tbl)
	}
	if peak := cell(t, tbl, idx["none"], 2); peak != cell(t, tbl, idx["none"], 3) {
		t.Errorf("undefended table peak %v != cap\n%s", peak, tbl)
	}
	if tcs < 90 {
		t.Errorf("anti-spoofing completion %.1f%%\n%s", tcs, tbl)
	}
	// Indiscriminate SYN limiting cannot match source-aware filtering.
	if rl > tcs-20 {
		t.Errorf("rate limit (%.1f%%) too close to anti-spoofing (%.1f%%)\n%s", rl, tcs, tbl)
	}
}

func TestE12Shapes(t *testing.T) {
	tbl, err := Run("e12", quick)
	if err != nil {
		t.Fatal(err)
	}
	rows := tbl.Rows()
	if len(rows) != 2 {
		t.Fatalf("quick e12 rows = %d, want 2\n%s", len(rows), tbl)
	}
	// Row 0 is the disabled baseline: no reaction, full attack delivery.
	if react := cell(t, tbl, 0, 2); react != -1 {
		t.Errorf("baseline row reacted at %v ms\n%s", react, tbl)
	}
	base := cell(t, tbl, 0, 3)
	if base < 90 {
		t.Errorf("undefended attack delivery %.1f%%, want ~100\n%s", base, tbl)
	}
	// Row 1 closes the loop: detect from the telemetry stream, mitigate,
	// retract after the flood.
	react := cell(t, tbl, 1, 2)
	if react < 0 || react > 500 {
		t.Errorf("reaction time %.0f ms, want within the attack window\n%s", react, tbl)
	}
	defended := cell(t, tbl, 1, 3)
	if defended > base-30 {
		t.Errorf("mitigation barely helped: %.1f%% vs %.1f%% undefended\n%s", defended, base, tbl)
	}
	if rows[1][5] != "true" {
		t.Errorf("mitigation never retracted after the attack ended\n%s", tbl)
	}
	// Collateral bound: legitimate TCP goodput stays high in every row.
	for r := 0; r < tbl.NumRows(); r++ {
		if legit := cell(t, tbl, r, 4); legit < 90 {
			t.Errorf("row %d: legit goodput %.1f%%\n%s", r, legit, tbl)
		}
	}
}

func TestRunMany(t *testing.T) {
	ids := []string{"f3", "e8", "zz", "e9"}
	tables, errs := RunMany(ids, quick, 4)
	if errs[0] != nil || errs[1] != nil || errs[3] != nil {
		t.Fatalf("errs = %v", errs)
	}
	if errs[2] == nil {
		t.Error("unknown id succeeded")
	}
	for _, i := range []int{0, 1, 3} {
		if tables[i] == nil || tables[i].NumRows() == 0 {
			t.Errorf("table %d empty", i)
		}
	}
	// Determinism under parallelism: tables match a serial run.
	serial, serr := RunMany([]string{"f3"}, quick, 1)
	if serr[0] != nil {
		t.Fatal(serr[0])
	}
	if serial[0].String() != tables[0].String() {
		t.Error("parallel run diverged from serial run")
	}
}
