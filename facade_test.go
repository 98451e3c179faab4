package corun

import (
	"bytes"
	"testing"
)

// Error paths and accessors of the public facade.

func TestScheduleErrorsOnInfeasibleCapAtPlanTime(t *testing.T) {
	// A cap just above the minimum co-run power makes solo CPU runs
	// borderline; build a legit system but hand Run a foreign schedule.
	s := capped15(t)
	w8, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	w16, err := s.Prepare(Batch16())
	if err != nil {
		t.Fatal(err)
	}
	plan16, err := w16.Schedule("hcs")
	if err != nil {
		t.Fatal(err)
	}
	// A 16-job schedule cannot run against an 8-job workload.
	if _, err := w8.Run(plan16); err == nil {
		t.Error("mismatched schedule accepted by Run")
	}
	if _, err := w8.PredictedMakespan(plan16); err == nil {
		t.Error("mismatched schedule accepted by PredictedMakespan")
	}
}

func TestPairDegradationIndexValidation(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.PredictPairDegradation(-1, 0); err == nil {
		t.Error("negative index accepted")
	}
	if _, _, err := w.PredictPairDegradation(0, 99); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, _, err := w.MeasurePairDegradation(99, 0); err == nil {
		t.Error("out-of-range index accepted by measure")
	}
	// And a valid pair round-trips: prediction and measurement agree in
	// sign and rough magnitude for a well-modelled pair.
	p, _, err := w.PredictPairDegradation(5, 0) // lud beside streamcluster
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := w.MeasurePairDegradation(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || m <= 0 {
		t.Errorf("degradations should be positive: predicted %v measured %v", p, m)
	}
}

func TestStandaloneTimeIndexValidation(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.StandaloneTime(99, CPU); err == nil {
		t.Error("out-of-range job accepted")
	}
}

func TestBatchAccessor(t *testing.T) {
	s := capped15(t)
	batch := Batch8()
	w, err := s.Prepare(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Batch(); len(got) != 8 || got[0] != batch[0] {
		t.Error("Batch accessor broken")
	}
}

func TestServeClusterValidation(t *testing.T) {
	s := capped15(t)
	if _, err := s.ServeCluster(nil, 0, RoundRobin, "hcs+", 1); err == nil {
		t.Error("zero nodes accepted")
	}
	a, err := ArrivalOf("lud", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ServeCluster([]Arrival{a}, 2, LeastLoaded, "hcs+", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerNode) != 2 {
		t.Errorf("%d nodes in result", len(res.PerNode))
	}
}

func TestArrivalOfValidation(t *testing.T) {
	if _, err := ArrivalOf("nope", 0, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
	a, err := ArrivalOf("srad", 12.5, 1.1)
	if err != nil || a.At != 12.5 || a.Scale != 1.1 || a.Prog == nil {
		t.Errorf("ArrivalOf broken: %+v %v", a, err)
	}
}

func TestGenerateArrivalsFacade(t *testing.T) {
	as, err := GenerateArrivals(5, 10, 2)
	if err != nil || len(as) != 5 {
		t.Fatalf("GenerateArrivals: %v %d", err, len(as))
	}
	if _, err := GenerateArrivals(0, 10, 2); err == nil {
		t.Error("zero arrivals accepted")
	}
}

func TestSaveCharacterizationRejectsNilWriterTarget(t *testing.T) {
	s := capped15(t)
	var buf bytes.Buffer
	if err := s.SaveCharacterization(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("nothing written")
	}
}

func TestMachinePresets(t *testing.T) {
	if DefaultMachine() == nil || KaveriMachine() == nil {
		t.Fatal("nil presets")
	}
	if DefaultMachine().TDP == KaveriMachine().TDP {
		t.Error("presets suspiciously identical")
	}
}

// Online calibration plugs into the pipeline and does not hurt the
// scheduled outcome.
func TestPrepareCalibrated(t *testing.T) {
	s := capped15(t)
	batch := Batch8()
	plain, err := s.Prepare(batch)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := s.PrepareCalibrated(batch)
	if err != nil {
		t.Fatal(err)
	}
	planPlain, err := plain.Schedule("hcs+")
	if err != nil {
		t.Fatal(err)
	}
	planCal, err := cal.Schedule("hcs+")
	if err != nil {
		t.Fatal(err)
	}
	repPlain, err := plain.Run(planPlain)
	if err != nil {
		t.Fatal(err)
	}
	repCal, err := cal.Run(planCal)
	if err != nil {
		t.Fatal(err)
	}
	if float64(repCal.Makespan) > float64(repPlain.Makespan)*1.10 {
		t.Errorf("calibrated model scheduled clearly worse: %v vs %v",
			repCal.Makespan, repPlain.Makespan)
	}
}

// RunPolicy resolves a name through the registry: a planned policy
// runs its plan, a dispatcher is the paper's baseline under the
// GPU-biased governor and has no plan.
func TestRunPolicyPlansOrDispatches(t *testing.T) {
	s := capped15(t)
	w, err := s.Prepare(Batch8())
	if err != nil {
		t.Fatal(err)
	}
	plan, rep, err := w.RunPolicy("HCSPlus", 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.Schedule("hcs+")
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.String() != want.String() {
		t.Errorf("RunPolicy plan %v, Schedule plan %v", plan, want)
	}
	wantRep, err := w.Run(want)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan != wantRep.Makespan {
		t.Errorf("RunPolicy makespan %v, Run makespan %v", rep.Makespan, wantRep.Makespan)
	}

	rnd, err := w.RunRandom(3, GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	def, err := w.RunDefault(GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	for name, direct := range map[string]*Report{"random": rnd, "default": def, "default-gpu": def} {
		plan, rep, err := w.RunPolicy(name, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plan != nil || rep.Makespan != direct.Makespan || rep.EnergyJ != direct.EnergyJ {
			t.Errorf("%s: plan %v, makespan %v, energy %v; want no plan, %v, %v",
				name, plan, rep.Makespan, rep.EnergyJ, direct.Makespan, direct.EnergyJ)
		}
		if _, err := w.Schedule(name); err == nil {
			t.Errorf("Schedule(%q) of a dispatcher succeeded", name)
		}
	}
	if _, _, err := w.RunPolicy("fifo", 1); err == nil {
		t.Error("unknown policy accepted")
	}
}
