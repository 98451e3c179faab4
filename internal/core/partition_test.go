package core

import (
	"math/rand"
	"reflect"
	"testing"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/profile"
	"corun/internal/units"
	"corun/internal/workload"
)

// coRunEverBeneficial is the reference step-1 test: whether job i can
// benefit from co-running with any other job under the caps, trying
// both placements of every partner. PartitionJobs must put exactly the
// jobs it accepts in S_co.
func (cx *Context) coRunEverBeneficial(i int) bool {
	n := cx.Oracle.NumJobs()
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		if cx.pairEverBeneficial(i, j) || cx.pairEverBeneficial(j, i) {
			return true
		}
	}
	return false
}

// seededBatch draws n jobs with programs uniform over the benchmark set
// and input scales in [0.8, 1.3].
func seededBatch(t testing.TB, n int, seed int64) []*workload.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	batch := make([]*workload.Instance, n)
	for i := range batch {
		prog, err := workload.ByName(names[rng.Intn(len(names))])
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = &workload.Instance{ID: i, Prog: prog, Scale: 0.8 + 0.5*rng.Float64(), Label: prog.Name}
	}
	return batch
}

// PartitionJobs tests each unordered pair at most once and skips pairs
// an earlier scan already rejected; it must still split the batch
// exactly as scanning every partner of every job does. Each batch puts
// one to three jobs in S_seq, so both sets are exercised, and in each
// some job's only partners found other partners first, so skipping
// every earlier scanned job (not just those whose scan passed it)
// would move that job to S_seq.
func TestPartitionMatchesPerJobScan(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		seed    int64
		cap     units.Watts
		domains apu.DomainCaps
		truth   bool // plan over measured degradations, one class per job
	}{
		{"uncapped", 8, 22, 0, apu.DomainCaps{}, false},
		{"15W", 8, 131, 15, apu.DomainCaps{}, false},
		{"15W+PP0", 8, 313, 15, apu.DomainCaps{PP0: 6}, false},
		{"15W+ground-truth", 6, 26, 15, apu.DomainCaps{}, true},
	}
	cfg, mem := apu.DefaultConfig(), memsys.Default()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch := seededBatch(t, tc.n, tc.seed)
			prof, err := profile.Collect(cfg, mem, batch)
			if err != nil {
				t.Fatal(err)
			}
			var o Oracle
			if tc.truth {
				o, err = model.NewGroundTruthOracle(prof, batch)
			} else {
				o, err = model.NewPredictor(testChar(t), prof)
			}
			if err != nil {
				t.Fatal(err)
			}
			context := func() *Context {
				cx, err := NewContext(o, cfg, tc.cap)
				if err != nil {
					t.Fatal(err)
				}
				cx.Domains = tc.domains
				return cx
			}

			ref := context()
			var want Partition
			for i := range batch {
				if ref.coRunEverBeneficial(i) {
					want.SCo = append(want.SCo, i)
				} else {
					want.SSeq = append(want.SSeq, i)
				}
			}
			if len(want.SSeq) < 1 || len(want.SSeq) > 3 {
				t.Fatalf("reference S_seq %v: the batch should put 1-3 jobs there", want.SSeq)
			}
			if got := context().PartitionJobs(); !reflect.DeepEqual(got, want) {
				t.Errorf("PartitionJobs %+v, per-job scan %+v", got, want)
			}
		})
	}
}
