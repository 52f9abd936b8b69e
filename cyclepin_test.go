package ltp_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"ltp"
	"ltp/internal/core"
	"ltp/internal/pipeline"
)

// pinnedCycleDigests holds sha256(json(RunResult)) for every cell of
// the TestCycleResultsPinned grid. The values were recorded before the
// event-driven select/wakeup rewrite; a pure speedup of the cycle loop
// must leave every one of them unchanged. If a change moves cycle
// results on purpose, replace the table with the digests the failing
// test prints.
var pinnedCycleDigests = map[string]string{
	"chains/limit-NR":                   "98dba9bddea5266c473b5c28167d6f02bceed418e6838ba4c5945f6d9f0cf503",
	"chains/limit-NU":                   "937f05d42628e179a6176cdd59ff611339582f2a72d556f80ffb43e3a1544030",
	"chains/limit-NRNU":                 "fbf5c8cd10ca558fb293f8fbaaa6ee772456148da75082adb6f62fc287c7e220",
	"chains/limit-NoLTP":                "285079c03531abe9654f8078c320e709e1ef6bea2e0d98fb425a7207ce2e696c",
	"chains/limit-IQ16-NRNU":            "f835d6c2d6cf3989eab3a14151e77b898bf910fa67eb511bc5c880f64509e527",
	"chains/IQ32-RF96-LTP":              "c7f45f6e700ac62a225657ee41fa69d61aeef3e0a0c1ba50f1edf3f9a7464e3b",
	"chains/IQ32-RF96-NRNU-8tickets":    "dce4524beb36e474464d6270ef80f65f0aeb4437671a5699e2ee6d59b85af3c8",
	"chains/IQ32-RF96-WIB":              "ad13f30580ca6dc33c064528cbf1483f44b72ddc7d65bdd9385ab3043a4de609",
	"fpstream/limit-NR":                 "640661e959a589eaee128feb6fca1fcafe7ff009b4f7c7a7b8374cbe7bb35ffe",
	"fpstream/limit-NU":                 "7e1672691fc17632cb96e4f009a1bc4c83af466301b1ef7ba69588f9ee30c429",
	"fpstream/limit-NRNU":               "d649a4eca95fb70da4c4898c96ebf265ae7dc3b350c0810b5854042c71e52cd0",
	"fpstream/limit-NoLTP":              "8ec93a67309c6036edc2adb9ecdd053749b078a0915a86e63bcfaddee94ac34a",
	"fpstream/limit-IQ16-NRNU":          "abe0ff85e186690a187898956a576ea903bf04a0b21bb735a1903aed271ec20c",
	"fpstream/IQ32-RF96-LTP":            "99595ba2249875fd2fff36fc91961016f2d51f3c06a560e65340d5ddaa6fd5e5",
	"fpstream/IQ32-RF96-NRNU-8tickets":  "aba13868ad6a7bfd47761fe21f7c0031701e6652e3c70d6722f583f2f08946f9",
	"fpstream/IQ32-RF96-WIB":            "9f7b178856aeea4bfba0f49e7da106d7412fa17beba32020d32d7617700cdae0",
	"indirect/limit-NR":                 "7178fe4298ee32ebbaa4cca71f9208d1805983e3cdcacdd476bfdc1d4066286b",
	"indirect/limit-NU":                 "814f50e416117a482519dec51485a47c8e07e244f473e2b1d92a0e26cf841088",
	"indirect/limit-NRNU":               "6fdf9d032038b293e46176955ab5ca5fb73c61d555cc8662db147bf51e785463",
	"indirect/limit-NoLTP":              "c084a616504c02463933f81da27c0c4dafe0b715ffea7d4293d599b530620754",
	"indirect/limit-IQ16-NRNU":          "421a5e8b46a5edfef5e17891a025d9e1aa31e1a8ef4f5a94694fdcd3b2c21bb7",
	"indirect/IQ32-RF96-LTP":            "fd1978cfb0e1d0ab0aaf5d45c716596d969c23c90e81ba28a93514d9799f0145",
	"indirect/IQ32-RF96-NRNU-8tickets":  "8282cfa4b7cb390810b3d585f053594596863e8868dad910200c8c0a9265e299",
	"indirect/IQ32-RF96-WIB":            "f0167ef28f6e673ec4b418ead993bed4e234b9e39bb30770f81f3e7cde977b00",
	"hashprobe/limit-NR":                "1ed628a88d9d7e2011d8fe2871cdccafb93ba51b36510fc3a840c4d731579a3f",
	"hashprobe/limit-NU":                "c2e7291a1dc90f4942445c92049f71dba40a6853c8899a9b1733a5fa014cf36b",
	"hashprobe/limit-NRNU":              "7d5c66b1c0892c3fd2cd7b928b42bae8ff29d90c4e040fc9038495eac3069630",
	"hashprobe/limit-NoLTP":             "49d532aa1a777b06886329f22e284c53f2020210261f6766f433b7fb554a41a6",
	"hashprobe/limit-IQ16-NRNU":         "c7379c3e202b371139a11c35651c3f1cbcc51a682cc2c5a43fafcaf077eb39ff",
	"hashprobe/IQ32-RF96-LTP":           "6407972bf461084fb19d9af253753cf693d676752cb355f5bf904aaea20d67a4",
	"hashprobe/IQ32-RF96-NRNU-8tickets": "9cde2718412f2a7b4ab774dd322a0dc35af5ca8df17494dbf110b39e1d6adc01",
	"hashprobe/IQ32-RF96-WIB":           "630fd0c9f2bc4e555daafbbed3da3a7f7098d0435cf93fc914ccb19d2924be46",
}

// pinConfigs is the configuration axis of the pin grid: the limit study
// (unlimited IQ/RF/LQ/SQ, oracle classification, unlimited LTP) in each
// parking mode and without LTP, a 16-entry-IQ limit core with NR+NU
// parking, the realistic IQ32/RF96 core with the default queue LTP, the
// ticketed NR+NU design with only 8 tickets, and the WIB baseline.
func pinConfigs() []struct {
	name string
	spec ltp.RunSpec
} {
	limit := func(iq int) *pipeline.Config {
		c := pipeline.DefaultConfig()
		c.IQSize, c.IntRegs, c.FPRegs = iq, pipeline.Inf, pipeline.Inf
		c.LQSize, c.SQSize = pipeline.Inf, pipeline.Inf
		c.Hier.L1DMSHRs, c.Hier.L2MSHRs = 0, 0
		c.LateLSQAlloc = true
		return &c
	}
	realistic := func() *pipeline.Config {
		c := pipeline.DefaultConfig()
		c.IQSize, c.IntRegs, c.FPRegs = 32, 96, 96
		return &c
	}
	oracleLTP := func(m core.Mode) *core.Config {
		return &core.Config{Mode: m, Tickets: 128, UITWays: 4}
	}
	nrnu8 := core.DefaultConfig()
	nrnu8.Mode, nrnu8.Tickets = core.ModeNRNU, 8
	wib := realistic()
	wib.WIBSize, wib.WIBPorts = 1024, 4

	return []struct {
		name string
		spec ltp.RunSpec
	}{
		{"limit-NR", ltp.RunSpec{Pipeline: limit(pipeline.Inf), UseLTP: true, LTP: oracleLTP(core.ModeNR), Oracle: true}},
		{"limit-NU", ltp.RunSpec{Pipeline: limit(pipeline.Inf), UseLTP: true, LTP: oracleLTP(core.ModeNU), Oracle: true}},
		{"limit-NRNU", ltp.RunSpec{Pipeline: limit(pipeline.Inf), UseLTP: true, LTP: oracleLTP(core.ModeNRNU), Oracle: true}},
		{"limit-NoLTP", ltp.RunSpec{Pipeline: limit(pipeline.Inf)}},
		{"limit-IQ16-NRNU", ltp.RunSpec{Pipeline: limit(16), UseLTP: true, LTP: oracleLTP(core.ModeNRNU), Oracle: true}},
		{"IQ32-RF96-LTP", ltp.RunSpec{Pipeline: realistic(), UseLTP: true}},
		{"IQ32-RF96-NRNU-8tickets", ltp.RunSpec{Pipeline: realistic(), UseLTP: true, LTP: &nrnu8}},
		{"IQ32-RF96-WIB", ltp.RunSpec{Pipeline: wib}},
	}
}

// TestCycleResultsPinned pins the cycle tier's results bit for bit over
// four kernels × eight core configurations at small budgets, so a
// refactor or optimization of the cycle loop cannot silently move a
// number.
func TestCycleResultsPinned(t *testing.T) {
	for _, wl := range []string{"chains", "fpstream", "indirect", "hashprobe"} {
		for _, c := range pinConfigs() {
			name := wl + "/" + c.name
			spec := c.spec
			spec.Workload, spec.Scale = wl, 0.05
			spec.WarmInsts, spec.MaxInsts = 2000, 3000
			res, err := ltp.RunContext(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			got := hex.EncodeToString(sum[:])
			if want := pinnedCycleDigests[name]; got != want {
				t.Errorf("%q: %q, // pinned %q", name, got, want)
			}
		}
	}
}
