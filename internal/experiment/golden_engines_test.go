package experiment

// Golden digests for every engine-table name. TestGoldenDigests pins the five
// historical engines; this gate covers all of Engines(), so a change to the
// network layer's delivery paths cannot move an ablation, hardened or
// failover variant unnoticed. The extra cells exercise the delivery rules
// the plain cell does not reach: sequence-gap and session-message detection,
// jittered lossy recovery (net-stream draws on every control hop) and the
// message mutator (draws at every control delivery), the last both on the
// precomputed path and under the queueing model. The crash and churn cells
// drive the engines' crash hooks: crash windows of three clients plus two
// link outages (chaosParitySchedule), and the churn sweep's crash waves at
// rate 1, aimed at the coordinator succession line. Their jitter-lossy
// twins add link jitter and lossy recovery, so the order in which a
// rebooted client resumes its recoveries moves net-stream draws: walking a
// client's recoveries in descending seq moves 19 of those 30 digests.
//
// The plain, queued, gap, session, jitter-lossy and mutation constants were
// captured from the run-path implementation that predates the single
// delivery path. The crash and churn constants were captured on 2026-10-18
// at commit 8b1b5c2 (linux/amd64, go1.24.0), where each request engine still
// kept its own pending map, before their in-flight recoveries moved into the
// session's per-client recovery table. The crash-jitter-lossy and
// churn-jitter-lossy constants were captured on 2026-10-18 at commit 96c375e
// (linux/amd64, go1.24.0), where every engine still took its full option
// set. Do not re-capture any of them without first explaining why the
// firing order moved.

import (
	"fmt"
	"testing"

	"rmcast/internal/core"
	"rmcast/internal/fault"
	"rmcast/internal/mtree"
	"rmcast/internal/protocol"
	"rmcast/internal/rng"
	"rmcast/internal/topology"
)

// engineDigests: key is engine name + "/" + cell.
var engineDigests = map[string]string{
	"SRM/plain":                    "9fef9d0fc6b705e9",
	"SRM/queued":                   "b504924ee981daac",
	"RMA/plain":                    "d0bdb5371b28be14",
	"RMA/queued":                   "43688f6583dc842b",
	"RP/plain":                     "c2ae2b1a7163e4c8",
	"RP/queued":                    "261c2b4e6e6df5ff",
	"RP-AWARE/plain":               "9e6992f592465b07",
	"RP-AWARE/queued":              "f383fafff464fbdb",
	"RP-NOSRC/plain":               "96d1fb099d2b1455",
	"RP-NOSRC/queued":              "bd53666e7ca49bc6",
	"RP-NAK/plain":                 "c41527be4afd41ed",
	"RP-NAK/queued":                "348498049f9a4d4a",
	"RP-SUBGROUP/plain":            "5a1523f97afb147a",
	"RP-SUBGROUP/queued":           "9fbd74c925401da7",
	"SRC/plain":                    "c8bf39c33a2c204a",
	"SRC/queued":                   "4fb96363e2242379",
	"SRM-HONEST/plain":             "5b8749344bdd3743",
	"SRM-HONEST/queued":            "cac3dccb3e1bbad3",
	"SRM-ADAPT/plain":              "b9a9f5788c15e0d4",
	"SRM-ADAPT/queued":             "1b065bbf955edfac",
	"FEC/plain":                    "6fea6134001742c8",
	"FEC/queued":                   "6cf6f2a9378bfa39",
	"ACK/plain":                    "9a0aed853ef5b20d",
	"ACK/queued":                   "9e3658d2e0f45742",
	"RP-RESILIENT/plain":           "a8cfa62de1c11892",
	"RP-RESILIENT/queued":          "3e49283d87a2af5f",
	"RP-FAILOVER/plain":            "0d956f9b3bae6114",
	"RP-FAILOVER/queued":           "2e196ee287ced061",
	"COOP/plain":                   "63e9bc316603b8a3",
	"COOP/queued":                  "7f8dadacb29b4731",
	"SRM/gap":                      "9e3d85522d140415",
	"SRM/session":                  "5ea53c82959f53e3",
	"SRM/jitter-lossy":             "07652aedf49369d6",
	"SRM/mutation":                 "8af196dffdefb7b4",
	"SRM/mutation-queued":          "61823360b02e4612",
	"RMA/gap":                      "09a1e220d7ef20ac",
	"RMA/session":                  "a1ebeaada44c7ca9",
	"RMA/jitter-lossy":             "0804a1ec482ace72",
	"RMA/mutation":                 "39b3cf4d3de4dd5f",
	"RMA/mutation-queued":          "b8927e05d105b10c",
	"RP/gap":                       "d3fdbb6fe1c78aeb",
	"RP/session":                   "10ca1c5de4c9e150",
	"RP/jitter-lossy":              "880d94b9bd2173f6",
	"RP/mutation":                  "a0fddbcc67aa355d",
	"RP/mutation-queued":           "671ea3ba37674e02",
	"RP-AWARE/gap":                 "d78d344ea446e264",
	"RP-AWARE/session":             "0e35033b7df91025",
	"RP-AWARE/jitter-lossy":        "453feb58b5367b38",
	"RP-AWARE/mutation":            "d75ac3d86a7c29a9",
	"RP-AWARE/mutation-queued":     "d562421ce8cedddc",
	"RP-NOSRC/gap":                 "933284f603a3739c",
	"RP-NOSRC/session":             "abeaa7d211fe18ed",
	"RP-NOSRC/jitter-lossy":        "1a515958f219fc7f",
	"RP-NOSRC/mutation":            "eeca6ef3d6577374",
	"RP-NOSRC/mutation-queued":     "87b68ab7fc6dff62",
	"RP-NAK/gap":                   "aa987213557608c5",
	"RP-NAK/session":               "aaec262039cf9f0b",
	"RP-NAK/jitter-lossy":          "c5e8da2947512323",
	"RP-NAK/mutation":              "350a82da2864c37d",
	"RP-NAK/mutation-queued":       "73e1e672675e4a54",
	"RP-SUBGROUP/gap":              "e31dc8e504a2740a",
	"RP-SUBGROUP/session":          "b43a346178f352a9",
	"RP-SUBGROUP/jitter-lossy":     "04e57726b6e5dbc4",
	"RP-SUBGROUP/mutation":         "07821f3e15ff3552",
	"RP-SUBGROUP/mutation-queued":  "1b0ffcd08756af96",
	"SRC/gap":                      "dce75a89a6e5227a",
	"SRC/session":                  "2fd94052d92b96df",
	"SRC/jitter-lossy":             "12955388c3f6424a",
	"SRC/mutation":                 "7c3e1da5f4ef7ce6",
	"SRC/mutation-queued":          "f15505ac01c5c675",
	"SRM-HONEST/gap":               "9553fe263f2c3571",
	"SRM-HONEST/session":           "b5169662a3ad63f2",
	"SRM-HONEST/jitter-lossy":      "a314dcfdac5f6cef",
	"SRM-HONEST/mutation":          "37d14d3d083b8444",
	"SRM-HONEST/mutation-queued":   "7c8a558402e4a92c",
	"SRM-ADAPT/gap":                "11c1773bd0355617",
	"SRM-ADAPT/session":            "ee79cf4559047e81",
	"SRM-ADAPT/jitter-lossy":       "52683d161f750808",
	"SRM-ADAPT/mutation":           "2f044fa8964dc5ce",
	"SRM-ADAPT/mutation-queued":    "95d8f3da97a5d96f",
	"FEC/gap":                      "43b70b6a521af1bd",
	"FEC/session":                  "77d1cd8b40d62bad",
	"FEC/jitter-lossy":             "c8a960b2510c8507",
	"FEC/mutation":                 "0ee30f63a79c0691",
	"FEC/mutation-queued":          "447c97c6b5b1977a",
	"ACK/gap":                      "7d931ce679d2e943",
	"ACK/session":                  "506a74c7fc832b32",
	"ACK/jitter-lossy":             "1b1388401b6dff8c",
	"ACK/mutation":                 "b3c346f75e59cffa",
	"ACK/mutation-queued":          "bcf53879624e9c18",
	"RP-RESILIENT/gap":             "1d8a69916e5daac7",
	"RP-RESILIENT/session":         "83e1a6d5be84de48",
	"RP-RESILIENT/jitter-lossy":    "f321847bfb0deca9",
	"RP-RESILIENT/mutation":        "d706996c3e52d60b",
	"RP-RESILIENT/mutation-queued": "4848c49a64fdf29a",
	"RP-FAILOVER/gap":              "4d757db1b223a1d1",
	"RP-FAILOVER/session":          "4fb4d9d8fe383f99",
	"RP-FAILOVER/jitter-lossy":     "48d89388e6bc69ac",
	"RP-FAILOVER/mutation":         "7eca3508a278708c",
	"RP-FAILOVER/mutation-queued":  "5ca79e54608f4bdb",
	"COOP/gap":                     "d650c4174c9962a1",
	"COOP/session":                 "3896faeeaf7d9522",
	"COOP/jitter-lossy":            "8a3b76c6b73c9b7a",
	"COOP/mutation":                "1285612d0e0253b0",
	"COOP/mutation-queued":         "2a6155dd3395956f",
	// The crash and churn cells; see the file comment.
	"SRM/crash":          "635513e190c3029d",
	"SRM/churn":          "07a0e5cb86565eaa",
	"RMA/crash":          "6f2e8a776e8b9bfd",
	"RMA/churn":          "e63bc64035cc312b",
	"RP/crash":           "b562c6f25293df9f",
	"RP/churn":           "4c258be6dccb66cb",
	"RP-AWARE/crash":     "07d52e9d0c364c17",
	"RP-AWARE/churn":     "1356d52e5c068ce8",
	"RP-NOSRC/crash":     "9601d17ce4b70faa",
	"RP-NOSRC/churn":     "dedd253530743e77",
	"RP-NAK/crash":       "0949188cbd8292b1",
	"RP-NAK/churn":       "194554057ef7ea56",
	"RP-SUBGROUP/crash":  "2106eee1c5b725c0",
	"RP-SUBGROUP/churn":  "3a0d2407a14ecb18",
	"SRC/crash":          "ebb27162102e1a58",
	"SRC/churn":          "29534e408cbc0750",
	"SRM-HONEST/crash":   "33997cddf9b3beb8",
	"SRM-HONEST/churn":   "f84d5ef03ccd496f",
	"SRM-ADAPT/crash":    "800c9a2c8f63d06d",
	"SRM-ADAPT/churn":    "772c9fd290ccb66a",
	"FEC/crash":          "7ea2cad3aabc15d1",
	"FEC/churn":          "676537364182dffa",
	"ACK/crash":          "f58df0a8b9764951",
	"ACK/churn":          "5e8217baef7f1247",
	"RP-RESILIENT/crash": "a7d648c8beb24b77",
	"RP-RESILIENT/churn": "d4d5a66b0aea876a",
	"RP-FAILOVER/crash":  "43748568209f281b",
	"RP-FAILOVER/churn":  "e27a255321e18c8f",
	"COOP/crash":         "0acb5f63601b4ec5",
	"COOP/churn":         "f4e333107fff47f1",
	// The crash and churn cells with jitter and lossy recovery; see the
	// file comment.
	"SRM/crash-jitter-lossy":          "53a4555e6ac1771d",
	"SRM/churn-jitter-lossy":          "facb98eee8d8d2b9",
	"RMA/crash-jitter-lossy":          "2c1c37090e3d3f6d",
	"RMA/churn-jitter-lossy":          "de9c34b1f1259eba",
	"RP/crash-jitter-lossy":           "776f6cb483e58696",
	"RP/churn-jitter-lossy":           "806d03c82c595d66",
	"RP-AWARE/crash-jitter-lossy":     "27fcbd23f32150ee",
	"RP-AWARE/churn-jitter-lossy":     "6662367d0f3a8cea",
	"RP-NOSRC/crash-jitter-lossy":     "39c46d0a890b576b",
	"RP-NOSRC/churn-jitter-lossy":     "af0985f40f5557af",
	"RP-NAK/crash-jitter-lossy":       "d8efa0054b2963c2",
	"RP-NAK/churn-jitter-lossy":       "9f50f03085b3ecd4",
	"RP-SUBGROUP/crash-jitter-lossy":  "ec15ce37da8bbbaa",
	"RP-SUBGROUP/churn-jitter-lossy":  "6edfb1e0e7085ea7",
	"SRC/crash-jitter-lossy":          "7515ac9a3affc372",
	"SRC/churn-jitter-lossy":          "51007590a592fbbd",
	"SRM-HONEST/crash-jitter-lossy":   "6bbc217ea2ac50fb",
	"SRM-HONEST/churn-jitter-lossy":   "00a10657ebfe47b3",
	"SRM-ADAPT/crash-jitter-lossy":    "51f5f86e6ec44763",
	"SRM-ADAPT/churn-jitter-lossy":    "b7d2232f628ba5e7",
	"FEC/crash-jitter-lossy":          "eb2ac1c0e864c054",
	"FEC/churn-jitter-lossy":          "a37283b9b6594f09",
	"ACK/crash-jitter-lossy":          "f9c5e2a30a2445a2",
	"ACK/churn-jitter-lossy":          "f15b2f0ed9181235",
	"RP-RESILIENT/crash-jitter-lossy": "9aa67e500481e26a",
	"RP-RESILIENT/churn-jitter-lossy": "08f3b846219f5e14",
	"RP-FAILOVER/crash-jitter-lossy":  "51edbb001f4b2b87",
	"RP-FAILOVER/churn-jitter-lossy":  "21aacbd843594624",
	"COOP/crash-jitter-lossy":         "6a2bedef2df0e2d1",
	"COOP/churn-jitter-lossy":         "65f0ba980534bce8",
}

// engineCells are the extra configurations run for every engine, each a
// change to the golden cell's plain Config on the cell's network.
var engineCells = []struct {
	name string
	set  func(cfg *protocol.Config, topo *topology.Network)
}{
	{"gap", func(cfg *protocol.Config, _ *topology.Network) { cfg.Detection = protocol.DetectGap }},
	{"session", func(cfg *protocol.Config, _ *topology.Network) { cfg.Detection = protocol.DetectSession }},
	{"jitter-lossy", func(cfg *protocol.Config, _ *topology.Network) { cfg.Jitter, cfg.LossyRecovery = 0.3, true }},
	{"mutation", func(cfg *protocol.Config, _ *topology.Network) { cfg.Fault = mutationSchedule(cfg) }},
	{"mutation-queued", func(cfg *protocol.Config, _ *topology.Network) {
		cfg.Fault = mutationSchedule(cfg)
		cfg.PacketTime, cfg.DetectLag = 0.2, 4
	}},
	{"crash", func(cfg *protocol.Config, topo *topology.Network) { cfg.Fault = chaosParitySchedule(topo) }},
	{"churn", func(cfg *protocol.Config, topo *topology.Network) { cfg.Fault = churnSchedule(cfg, topo) }},
	{"crash-jitter-lossy", func(cfg *protocol.Config, topo *topology.Network) {
		cfg.Fault = chaosParitySchedule(topo)
		cfg.Jitter, cfg.LossyRecovery = 0.3, true
	}},
	{"churn-jitter-lossy", func(cfg *protocol.Config, topo *topology.Network) {
		cfg.Fault = churnSchedule(cfg, topo)
		cfg.Jitter, cfg.LossyRecovery = 0.3, true
	}},
}

// mutationSchedule is a full-intensity message-plane mutator over the
// stream's span.
func mutationSchedule(cfg *protocol.Config) *fault.Schedule {
	return &fault.Schedule{Mutation: fault.MutationFromIntensity(1, float64(cfg.Packets)*cfg.Interval)}
}

// churnSchedule is the churn sweep's top rate over the stream's span: crash
// waves aimed at the coordinator succession line plus background blackouts,
// from a fixed fault seed.
func churnSchedule(cfg *protocol.Config, topo *topology.Network) *fault.Schedule {
	tree, err := mtree.Build(topo)
	if err != nil {
		panic(err)
	}
	p := fault.ChurnParams{Rate: 1, Span: float64(cfg.Packets) * cfg.Interval}
	return fault.GenerateChurn(p, core.ElectionOrder(tree), rng.New(77))
}

// TestGoldenDigestsEngines runs every engine-table name on the golden cell,
// plain and queued, at 1 and 4 workers, against one constant per cell.
func TestGoldenDigestsEngines(t *testing.T) {
	for _, proto := range Engines() {
		for _, variant := range []string{"plain", "queued"} {
			key := proto + "/" + variant
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/w%d", key, w), func(t *testing.T) {
					res := goldenRunWorkers(t, proto, variant == "queued", w)
					checkEngineDigest(t, key, res)
				})
			}
		}
	}
}

// TestGoldenDigestsEngineCells runs every engine-table name on each extra
// cell. The cells lie outside the sharded mode's envelope, so one worker
// count covers them.
func TestGoldenDigestsEngineCells(t *testing.T) {
	topo, err := topology.Standard(50, 0.05, 2053)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range Engines() {
		for _, cell := range engineCells {
			key := proto + "/" + cell.name
			t.Run(key, func(t *testing.T) {
				eng, err := NewEngine(proto)
				if err != nil {
					t.Fatal(err)
				}
				cfg := protocol.Config{Packets: 40, Interval: 50}
				cell.set(&cfg, topo)
				s, err := protocol.NewSession(topo, eng, cfg, 1)
				if err != nil {
					t.Fatal(err)
				}
				res := s.Run()
				if err := Check(res); err != nil {
					t.Fatalf("%s: run %v", key, err)
				}
				checkEngineDigest(t, key, res)
			})
		}
	}
}

func checkEngineDigest(t *testing.T, key string, res *protocol.Result) {
	t.Helper()
	if got, want := ResultDigest(res), engineDigests[key]; got != want {
		t.Errorf("digest %s = %s, want %s", key, got, want)
	}
}
