(** Detector-accuracy campaigns over the indulgent consensus runner, a
    {!Sweep} cell.

    Sweeps a detector parameter grid x seeded fault plans (keys are
    params-major, then seed), auditing every run for the indulgence
    contract: agreement/validity must hold in {e every} run
    (detector-free safety), and every run whose plan is
    {!eventually_stable} must decide — a stable-but-undecided run is a
    {e livelock}, of which an honest campaign must count zero, while
    the lying mutants are expected to produce them (liveness lost,
    safety intact: exactly what the gate checks). *)

type config = {
  plans : int;
  first_seed : int;
  n : int;
  params : Detect.Timeout.params list;
      (** detector parameter grid; must not be empty *)
  mutant : Detect.Oracle.mutant;
  profile : Gen.profile;
}

val default_config : ?n:int -> unit -> config
(** 50 plans from seed 1 at n=4, default timeout parameters, honest
    detector, default minority-crash profile.  Every run has a budget
    of 400,000 events. *)

val horizon_slack : int
(** Virtual time a run gets past the plan horizon (3,000) for
    post-heal recovery: capped timeouts and round backoff need room
    after a heal. *)

val eventually_stable : n:int -> Plan.t -> bool
(** Whether the plan's final state lets the detector stabilise and a
    quorum form: no unhealed cut and a strict majority of nodes up.
    (Weaker than [Plan.quiet_after <> None]: a permanently-crashed
    minority still stabilises.) *)

type outcome = {
  plan_seed : int;
  params_ix : int;  (** index into the config's parameter grid *)
  plan : Plan.t;
  stable : bool;  (** {!eventually_stable} of the plan *)
  decided : bool;  (** every live node learned the decision *)
  agreement : bool;
  validity : bool;
  livelock : bool;  (** [stable && not decided] *)
  decision_latency : int option;  (** virtual time of the first decision *)
  suspicions : int;
  false_suspicions : int;
  omega_stable_at : int option;
  heartbeats : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

val plan_for : config -> seed:int -> Plan.t

val run_plan :
  ?quiet:bool ->
  config ->
  params:Detect.Timeout.params ->
  seed:int ->
  Plan.t ->
  Detect.Runner.report
(** One deterministic run (the shrinker's replay function).  [quiet]
    defaults to true — pass false to retain the trace. *)

include Sweep.S with type config := config and type outcome := outcome
(** [run] raises [Invalid_argument] on an empty parameter grid. *)
