(** Whole-system simulation harness for Ben-Or runs.

    Spawns [n] engine processes, each running either the decomposed
    (template-driven) or the monolithic consensus; injects crash faults on
    a virtual-time schedule; records every object observation through a
    {!Consensus.Monitor}; and reports decisions, message counts and
    property violations. *)

type mode = Decomposed | Monolithic

type config = {
  n : int;
  faults : int;  (** the resilience parameter t; crash budget, [2t < n] *)
  seed : int64;
  latency : Netsim.Latency.t;
  inputs : bool array;  (** length [n] *)
  crash_schedule : (int * int) list;
      (** [(virtual_time, pid)]: crash pid at that time *)
  policy : Messages.t Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict;
  mode : mode;
  max_rounds : int;
  common_coin : float option;
      (** [Some agreement] swaps the private-coin reconciliator for a weak
          common coin with that per-round agreement probability *)
  oracle : Dsim.Engine.oracle option;
      (** installed on the engine before any process spawns; [Some _]
          hands delivery order, message delays and drop decisions to a
          schedule explorer (see [lib/mcheck]).  [None] (the default)
          keeps the seeded-RNG behaviour. *)
}

val default_config : n:int -> inputs:bool array -> config
(** [t = (n-1)/2], seed 1, uniform 1–10 latency, no crashes, decomposed
    mode, 500 round cap. *)

type report = {
  decisions : (int * bool * int) list;  (** (pid, value, deciding round) *)
  engine_outcome : Dsim.Engine.outcome;
  virtual_time : int;  (** time of the last processed event *)
  messages_sent : int;
  messages_delivered : int;
  max_decision_round : int;  (** 0 when nobody decided *)
  crashed : int list;  (** pids actually crashed during the run *)
  process_failures : (int * exn) list;  (** uncaught protocol exceptions *)
  violations : Consensus.Monitor.violation list;
      (** VAC-object + consensus-property violations found by the monitor *)
  adopt_overruled : bool;
      (** true when some processor received [(adopt, u)] in some round yet
          the run decided [¬u] — the paper's Section-5 scenario showing why
          a commit-on-second-AC reading of such rounds would break
          agreement *)
  trace : Dsim.Trace.t;
      (** the run's structured trace (bounded to the newest ~10k events);
          read with {!Dsim.Trace.events} / {!Dsim.Trace.last} *)
}

val run : config -> report
(** Execute one simulation to quiescence (or deadlock — reported, never
    raised). *)

val all_decided_same : report -> expected_live:int -> bool
(** True when exactly [expected_live] processors decided and on a single
    common value. *)
