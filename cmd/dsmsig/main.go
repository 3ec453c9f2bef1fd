// Command dsmsig prints the false-sharing signature — the histogram of
// concurrent writers seen at access faults (§3) — of one application at
// one or more consistency-unit sizes, plus the paper's shift verdict.
//
// Usage:
//
//	dsmsig -app MGS                 # signatures at 4K and 16K + verdict
//	dsmsig -app Water -units 1,2,4
//	dsmsig -app jacobi -dataset 1024
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/expsvc"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/tmk"
)

func main() {
	app := flag.String("app", "", "application name")
	dataset := flag.String("dataset", "", "dataset (exact or substring; empty = app default)")
	units := flag.String("units", "1,4", "comma-separated unit sizes in pages")
	procs := flag.Int("procs", harness.Procs, "number of processors")
	protocol := flag.String("protocol", tmk.DefaultProtocol,
		"coherence protocol: "+strings.Join(tmk.ProtocolNames(), " or "))
	network := flag.String("network", netmodel.Default,
		"interconnect timing model: "+strings.Join(netmodel.Names(), ", "))
	placement := flag.String("placement", tmk.DefaultPlacement,
		"home-placement policy: "+strings.Join(tmk.PlacementNames(), ", "))
	flag.Parse()

	if *app == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *procs == 0 {
		fail(&expsvc.FieldError{Field: "procs", Msg: "must be positive (got 0)"})
	}

	var sigs []core.Signature
	var labels []string
	for _, us := range strings.Split(*units, ",") {
		u, err := strconv.Atoi(strings.TrimSpace(us))
		if err != nil || (u != 1 && u != 2 && u != 4) {
			fail(fmt.Errorf("bad unit %q (want 1, 2, or 4)", us))
		}
		res, err := expsvc.Resolve(expsvc.Spec{
			App: *app, Dataset: *dataset, UnitPages: u, Procs: *procs,
			Protocol: *protocol, Network: *network, Placement: *placement,
			Collect: true,
		})
		if err != nil {
			fail(err)
		}
		ts, err := res.Run(context.Background(), nil)
		if err != nil {
			fail(err)
		}
		label := fmt.Sprintf("%dK", 4*u)
		sig := core.SignatureOf(ts.Trials[0].Stats)
		sigs = append(sigs, sig)
		labels = append(labels, label)

		fmt.Printf("%s %s  [%s]\n", res.Entry.App, res.Entry.Dataset, label)
		for _, k := range sig.Buckets() {
			bar := strings.Repeat("#", int(sig[k]*50+0.5))
			fmt.Printf("  %d writers  %5.1f%%  %s\n", k, 100*sig[k], bar)
		}
		fmt.Printf("  mean concurrent writers: %.2f\n\n", sig.Mean())
	}

	if len(sigs) >= 2 {
		shift := core.Shift(sigs[0], sigs[len(sigs)-1])
		fmt.Printf("signature shift %s → %s: %+.2f writers (%s)\n",
			labels[0], labels[len(labels)-1], shift, core.Classify(shift))
		fmt.Println("paper's rule: a sizable rightward shift predicts a performance loss at the larger unit.")
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dsmsig:", err)
	os.Exit(1)
}
