//! The `calm` usage text.

/// Usage text.
pub const USAGE: &str = "\
calm — weaker forms of monotonicity for declarative networking

USAGE:
  calm eval      <program.dl> <facts.dl> [--updates updates.dl] [--from-scratch]
                 [--eval-threads N] [--trace-out PREFIX] [--metrics]
                 [--dump-plan] [--flight-recorder PATH]
  calm wfs       <program.dl> <facts.dl> [--eval-threads N]
  calm classify  <program.dl>
  calm stratify  <program.dl>
  calm check     <program.dl> [--class m|distinct|disjoint] [--trials N]
  calm simulate  <program.dl> <facts.dl> [--nodes N] [--strategy monotone|distinct|disjoint]
                 [--engine sequential|threaded|process] [--workers N] [--procs N]
                 [--respawn-budget N] [--eval-threads N] [--faults SPEC] [--trace]
                 [--trace-out PREFIX] [--metrics] [--dump-plan] [--flight-recorder PATH]
  calm trace     report <trace.jsonl>... [--json]

  --updates FILE evaluates once, then maintains the answer through the
  signed batches in FILE ('+ E(1,2).' inserts, '- E(2,3).' deletes,
  '---' separates batches, '%' comments), printing the output relations
  initially and after every batch. A derived fact a deletion may have
  cost a derivation is searched for another before it is deleted; a
  batch whose search visits over a fixed share of a stratum re-evaluates
  it and those above. --from-scratch runs calm eval's fixpoint on the
  updated input instead, through the same printer: 'diff' of the two
  modes is a correctness oracle (an error without --updates). --metrics
  appends '% maintenance:': retractions/insertions = derived facts
  deleted/added, rederivations = facts the search kept, derivations =
  rule instances enumerated, fallbacks = strata re-evaluated.

  --dump-plan prints the compiled query plan — per rule, the join order
  of round 0 and of every delta seed ('R[delta]' first), each atom
  tagged with how the kernel reaches it (probe@c: hash-index probe of
  column c, lookup: membership test, scan, or negated lookup) — as `% `
  comment lines before the results.

  --trace-out PREFIX writes a structured event log to PREFIX.jsonl and a
  Chrome trace (load at ui.perfetto.dev or chrome://tracing) to
  PREFIX.trace.json (missing directories in PREFIX are created);
  --metrics appends a run report to stdout.

  --flight-recorder PATH attaches the always-on flight recorder: a
  bounded ring of recent observations dumped (appended) to PATH when an
  anomaly fires — retry-budget exhaustion, wire decode failure, node
  crash, or non-quiescent termination. A clean run writes nothing; the
  dump is JSONL and feeds `calm trace report` directly.

  trace report rebuilds the happens-before message graph from one or
  more JSONL traces (--trace-out logs or flight-recorder dumps), checks
  the causal invariants (every delivery traces to its send; the causal
  graph is acyclic; causes precede effects) and prints per-link latency
  and retransmit-gap percentiles, the critical path, per-node
  queue-depth timelines and per-message-class fan-out. --json emits one
  JSON object instead. Invariant violations exit nonzero. Pass every
  PREFIX.workerK.jsonl of a process-engine run together: each worker
  traces only its half of a cross-worker message, so only the merged
  set is causally complete.

  --eval-threads N partitions every rule evaluation inside each fixpoint
  over N data-parallel worker threads. The derived database, metrics and
  printed output are byte-identical to the sequential run (N=1, the
  default) at any thread count.

  --engine threaded runs the network on the calm-net executor: nodes
  sharded over worker threads (--workers N, 0 or unset = one per core),
  quiescence detected by a Safra-style token ring. Output is identical
  to the sequential engine for coordination-free strategies. With
  --eval-threads T the run uses W network workers x T eval threads.

  --engine process runs the network as real OS processes: a coordinator
  spawns --procs N workers (0 or unset = one per core, clamped to the
  node count) that re-exec this binary as 'calm net-worker', connect
  back over loopback TCP, and exchange length-prefixed frames carrying
  the same canonical wire batches as the threaded engine. Quiescence is
  detected by the Safra token ring passing across process boundaries.
  Output is byte-identical to the sequential engine; a worker that dies
  mid-run yields a nonzero, non-quiescent exit (and a flight-recorder
  dump when attached) instead of a hang — unless supervision is on.
  With --trace-out PREFIX each worker writes PREFIX.workerK.jsonl next
  to the coordinator's PREFIX.jsonl; feed them all to 'calm trace
  report' together (respawned incarnations append .rN).
  --trace is refused here: the transitions happen in the workers.

  --respawn-budget N (process engine) turns the coordinator into a
  supervisor: each worker ships periodic versioned state snapshots, and
  a dead worker is respawned up to N times (exponential backoff) with
  its shard restored from the latest retained snapshot; the reliability
  substrate replays in-flight traffic and the Safra ring re-probes in a
  fresh epoch. When the budget runs out the dead shard is adopted by
  the survivors (graceful degradation) before the run is failed. N=0
  disables supervision (the abort-on-death behavior above). Default: 3
  when the fault plan schedules pkill(...), else 0.

  --faults SPEC (threaded and process engines) runs the network through
  the seeded fault-injection + reliable-delivery substrate and prints
  the fault counters. SPEC is comma-separated clauses:
    seed=N drop=P dup=P delay=P/T link=S>D:drop=P
    partition=S>D@F..T crash=N@K~D snapshot=K retries=N backoff=T
    pkill(worker=K@step=S)   (process engine only: kill the whole
    worker process K in place of its S-th step; repeatable — a second
    clause for the same worker kills its first respawn, and so on)
  e.g. --faults 'seed=7,drop=0.2,dup=0.1,crash=1@40~25' or
  --faults 'seed=7,pkill(worker=1@step=40)'. Output is still
  byte-identical to the sequential engine.
";
