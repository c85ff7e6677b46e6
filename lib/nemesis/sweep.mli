(** The campaign skeleton: one quiet, seeded run per key over
    {!Exec.Pool}, the outcomes kept in key order, plus timing.

    A campaign is a {!CELL} — its config, its key order, one run that
    yields an outcome, and its stable headline and body — and {!Make}
    turns it into the sweep.  The report holds nothing but the
    outcomes and the timing: every count, failure list, coverage table
    and faults-injected total is derived from the outcomes when it is
    read, so there is no aggregate to merge, and everything but the
    timing is identical at every job count.

    The run set is named by the config alone: every run is an isolated
    simulation keyed by its seed, so re-running a campaign replays
    exactly the same runs and a failure report is a reproduction
    recipe. *)

type 'o report = {
  outcomes : 'o list;  (** in key order, at every job count *)
  cpu_seconds : float;
      (** process CPU, summed across worker domains under [jobs > 1] *)
  wall_seconds : float;  (** elapsed wall-clock time for the sweep *)
}

val runs : _ report -> int

val runs_per_sec : _ report -> float
(** [runs / wall_seconds] (0 for an instantaneous sweep). *)

val failing : ('o -> bool) -> 'o report -> 'o list
(** The outcomes a gate rejects, in key order. *)

val fault_headline : string -> _ report -> Plan.t list -> string
(** [fault_headline name r plans] is
    ["<name> campaign: <runs> runs, <steps> faults injected"], counting
    the steps of every plan the campaign installed. *)

val pp_coverage : Format.formatter -> Plan.t list -> unit
(** The ["  coverage: kind=count, ..."] line: {!Plan.count_kinds}
    summed over the plans, every kind listed. *)

module type CELL = sig
  type config
  type key
  type outcome

  val keys : config -> key list
  (** The work order; it fixes the order of the report's [outcomes]. *)

  val seed : key -> int
  (** The seed a key names, reported if its run raises
      ({!Exec.Pool.Worker_error}). *)

  val run_key : config -> key -> outcome
  (** One quiet, deterministic run; it must build everything it
      touches from its arguments (it runs on any worker domain). *)

  val headline : outcome report -> string
  (** The report's first line, without timing. *)

  val pp_body : Format.formatter -> outcome report -> unit
  (** Every line after the headline; must not print timing. *)
end

module type S = sig
  type config
  type outcome

  val run :
    ?jobs:int -> ?on_outcome:(outcome -> unit) -> config -> outcome report
  (** The full sweep.  [jobs] (default 1) fans the keys over that many
      domains ({!Exec.Pool}).  [on_outcome] observes each run as it
      completes (progress reporting); under [jobs > 1] the completion
      order is nondeterministic, but calls never interleave. *)

  val pp_report : Format.formatter -> outcome report -> unit
  (** The headline with runs/sec, wall and CPU time appended, then the
      body. *)

  val pp_report_stable : Format.formatter -> outcome report -> unit
  (** {!pp_report} without the timing figures: byte-identical across
      job counts and machines, so two runs can be diffed. *)
end

module Make (C : CELL) :
  S with type config := C.config and type outcome := C.outcome
