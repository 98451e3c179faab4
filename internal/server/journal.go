package server

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"corun/internal/admission"
	"corun/internal/apu"
	"corun/internal/fault"
	"corun/internal/journal"
	"corun/internal/units"
	"corun/internal/workload"
)

// openJournal opens (and recovers) the durable state journal in
// cfg.DataDir, restoring the power cap, active policy, scheduling
// clock, and job table. Non-terminal jobs are re-enqueued: their
// epoch died with the previous process, so they go back to queued
// and get replanned by the first epoch after Start. Called from New
// before the scheduler loop exists, so no locking is needed.
func (s *Server) openJournal() error {
	jl, st, stats, err := journal.Open(journal.Options{
		Dir:           s.cfg.DataDir,
		Fsync:         s.cfg.Fsync,
		SnapshotBytes: s.cfg.SnapshotBytes,
		Observer: journal.Observer{
			Append: func(records, bytes int, latency time.Duration) {
				s.m.jlAppends.Add(float64(records))
				s.m.jlBytes.Add(float64(bytes))
				s.m.jlAppendLatency.Observe(latency.Seconds())
			},
			Fsync:         func() { s.m.jlFsyncs.Inc() },
			Snapshot:      func() { s.m.jlSnapshots.Inc() },
			SnapshotError: func(error) { s.m.jlSnapErrors.Inc() },
		},
		Faults: s.cfg.Faults,
	})
	if err != nil {
		return err
	}
	s.jl = jl

	// Recovered cap and policy win over the configured (flag) values:
	// the journal carries the live changes made through the API, and a
	// restart must not silently roll them back. A fresh data dir seeds
	// the journal with the configured values instead, so the very
	// first restart already restores them.
	fail := func(err error) error {
		jl.Close()
		s.jl = nil
		return err
	}
	if st.CapWatts != nil {
		cap := units.Watts(*st.CapWatts)
		var dc apu.DomainCaps
		if st.PP0Watts != nil {
			dc.PP0 = units.Watts(*st.PP0Watts)
		}
		if st.PP1Watts != nil {
			dc.PP1 = units.Watts(*st.PP1Watts)
		}
		if err := s.cfg.Machine.CheckCaps(cap, dc); err != nil {
			return fail(fmt.Errorf("server: recovered power cap: %w", err))
		}
		s.setCapWatts(cap)
		s.setDomainWatts(dc)
		s.m.capWatts.Set(float64(cap))
		s.publishDomainCapGauges(dc)
	} else {
		if err := jl.Append(capRecord(s.capWatts(), s.domainWatts())); err != nil {
			return fail(err)
		}
	}
	if st.Policy != "" {
		p, err := s.checkPolicy(st.Policy)
		if err != nil {
			return fail(fmt.Errorf("server: recovered policy: %w", err))
		}
		s.setPolicyNow(p)
	} else {
		if err := jl.Append(journal.Record{Type: journal.TypePolicyChanged, Policy: s.policyNow()}); err != nil {
			return fail(err)
		}
	}

	requeued := 0
	for _, jr := range st.Jobs {
		j := jobFromRecord(jr)
		if !j.State.Terminal() {
			// The previous process acknowledged the job but never
			// finished it; any in-flight epoch is gone, so it starts
			// over from the queue. Jobs restore through the admission
			// layer in record (submission) order, which rebuilds each
			// tenant's FIFO and reassigns the WFQ virtual-time tags in
			// arrival order — so the first epoch after a crash selects
			// by priority and fairness, not by raw record order.
			// Restore bypasses the queue bounds: every journaled ack
			// must be honoured even if bounds shrank between runs.
			j.State = JobQueued
			j.Epoch = 0
			j.StartedSimS = 0
			j.PredictedFinishSimS = 0
			class, cerr := admission.ParseClass(j.Priority)
			if cerr != nil {
				class = admission.ClassNormal // tolerant replay, like orphan transitions
			}
			s.adm.Restore(admission.Entry{
				ID: j.ID, Tenant: j.Tenant, Class: class,
				EnqueuedAt: j.SubmittedAt, Payload: j,
			})
			requeued++
		}
		s.table.insert(j)
		if n, ok := parseJobID(j.ID); ok && int64(n) >= s.nextID.Load() {
			s.nextID.Store(int64(n) + 1)
		}
	}
	s.setClock(units.Seconds(st.SimClockS))

	s.admMu.Lock()
	s.syncQueueGauges()
	s.admMu.Unlock()
	s.m.simClock.Set(float64(s.clock()))
	s.m.jlRecovered.Set(float64(requeued))
	s.m.jlTruncated.Set(float64(stats.TruncatedTailBytes))
	return nil
}

// appendDurable writes records through the journal with the daemon's
// failure policy wrapped around it: the circuit breaker gates the
// attempt (ErrDegraded when open), transient errors are retried on
// the jittered exponential backoff, and the final outcome feeds the
// breaker. A *journal.SyncError flips the retry from re-appending to
// re-driving durability with Sync — the frames are already in the
// log, and a second Append would duplicate them.
func (s *Server) appendDurable(recs ...journal.Record) error {
	if s.jl == nil || len(recs) == 0 {
		return nil
	}
	if s.brk != nil && !s.brk.Allow() {
		return ErrDegraded
	}
	appended := false
	err := s.bo.Run(func(attempt int) error {
		if attempt > 0 {
			s.m.jlRetries.Inc()
		}
		var err error
		if appended {
			err = s.jl.Sync()
		} else {
			err = s.jl.Append(recs...)
		}
		if err == nil {
			return nil
		}
		var se *journal.SyncError
		if errors.As(err, &se) {
			appended = true
		}
		if errors.Is(err, journal.ErrClosed) {
			return fault.Permanent(err)
		}
		return err
	})
	if err != nil {
		// A closed journal is the drain path, not a fault.
		if s.brk != nil && !errors.Is(err, journal.ErrClosed) {
			s.brk.Failure()
		}
		return err
	}
	if s.brk != nil {
		s.brk.Success()
	}
	return nil
}

// journalAppend best-effort journals job lifecycle records from the
// scheduler goroutine. A failure must not take the node down
// mid-epoch, so the records are dropped and counted — as an error
// (corund_journal_errors_total) when the write failed past its
// retries, or silently suspended while the breaker holds the daemon
// degraded. Dropped lifecycle records cost nothing but work: on a
// restart the affected jobs replay as non-terminal and re-run, so an
// acknowledged job is still never lost.
func (s *Server) journalAppend(recs []journal.Record) {
	if s.jl == nil || len(recs) == 0 {
		return
	}
	// Route through the writer goroutine so the scheduler's terminal
	// records share batches (and fsyncs) with in-flight submission acks
	// instead of contending with them on the journal lock. The call
	// still blocks until the batch is durable, so drain and recovery
	// semantics are unchanged. The writer is stopped only after the
	// scheduler loop exits (Close), so ErrClosed here means a direct
	// append raced an explicit Close — fall through to the old path.
	err := s.jw.submit(recs)
	if errors.Is(err, journal.ErrClosed) {
		err = s.appendDurable(recs...)
	}
	if err != nil {
		if !errors.Is(err, ErrDegraded) && !errors.Is(err, journal.ErrClosed) {
			s.m.jlErrors.Inc()
		}
		s.m.jlDropped.Add(float64(len(recs)))
	}
}

// stateRecord captures a job's post-transition view. clock is the
// scheduling clock after the transition's epoch (0 for transitions
// that do not advance it).
func stateRecord(j *Job, clock float64) journal.Record {
	return journal.Record{Type: journal.TypeJobState, Job: recordFromJob(j), SimClockS: clock}
}

// recordFromJob and jobFromRecord convert between the server's job
// table entry and its journaled form, field for field — recovery
// must restore acknowledged jobs bit-for-bit.
func recordFromJob(j *Job) *journal.JobRecord {
	jr := &journal.JobRecord{
		ID:                  j.ID,
		Program:             j.Program,
		Scale:               j.Scale,
		Label:               j.Label,
		DeadlineS:           j.DeadlineS,
		Tenant:              j.Tenant,
		Priority:            j.Priority,
		SubmittedAt:         j.SubmittedAt,
		ArrivedSimS:         j.ArrivedSimS,
		State:               string(j.State),
		Epoch:               j.Epoch,
		StartedSimS:         j.StartedSimS,
		FinishedSimS:        j.FinishedSimS,
		PredictedFinishSimS: j.PredictedFinishSimS,
		ResponseS:           j.ResponseS,
		Device:              j.Device,
		Partner:             j.Partner,
		Error:               j.Error,
	}
	if j.DeadlineMet != nil {
		b := *j.DeadlineMet
		jr.DeadlineMet = &b
	}
	return jr
}

func jobFromRecord(jr *journal.JobRecord) *Job {
	j := &Job{
		ID:                  jr.ID,
		Program:             jr.Program,
		Scale:               jr.Scale,
		Label:               jr.Label,
		DeadlineS:           jr.DeadlineS,
		Tenant:              jr.Tenant,
		Priority:            jr.Priority,
		State:               JobState(jr.State),
		SubmittedAt:         jr.SubmittedAt,
		Epoch:               jr.Epoch,
		ArrivedSimS:         jr.ArrivedSimS,
		StartedSimS:         jr.StartedSimS,
		FinishedSimS:        jr.FinishedSimS,
		PredictedFinishSimS: jr.PredictedFinishSimS,
		ResponseS:           jr.ResponseS,
		Device:              jr.Device,
		Partner:             jr.Partner,
		Error:               jr.Error,
		// The spec is rebuilt verbatim, NOT normalized: a record from a
		// journal written before the tenant/priority fields existed must
		// replay bit-for-bit, with both fields empty.
		spec: workload.JobSpec{
			Program:   jr.Program,
			Scale:     jr.Scale,
			Label:     jr.Label,
			DeadlineS: jr.DeadlineS,
			Tenant:    jr.Tenant,
			Priority:  jr.Priority,
		},
	}
	if jr.DeadlineMet != nil {
		b := *jr.DeadlineMet
		j.DeadlineMet = &b
	}
	return j
}

// parseJobID extracts the numeric suffix of a "job-%06d" or
// "<node-id>-job-%06d" ID so recovery can resume the ID sequence past
// every restored job, including journals written under a different
// (or no) node identity.
func parseJobID(id string) (int, bool) {
	i := strings.LastIndex(id, "job-")
	if i < 0 || (i > 0 && id[i-1] != '-') {
		return 0, false
	}
	n, err := strconv.Atoi(id[i+len("job-"):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
