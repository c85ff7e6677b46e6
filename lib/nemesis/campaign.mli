(** The RSM fault campaign, a {!Sweep} cell: seeded random fault plans
    x consensus backends over the KV workload, every run audited with
    {!Rsm.Checker} (total order, integrity, no-duplication,
    completeness), the state-digest comparison and, with storage, the
    durability audit.  Keys are backend-major, then seed.

    The run set is named by [(profile, first_seed, plans)] alone —
    re-running the same campaign replays exactly the same runs, so a
    failure report is a reproduction recipe. *)

type config = {
  backends : Rsm.Backend.t list;
  plans : int;  (** seeded plans per backend *)
  first_seed : int;  (** plan seeds are [first_seed .. first_seed+plans-1] *)
  n : int;
  clients : int;
  commands : int;  (** per client *)
  batch : int;
  profile : Gen.profile;  (** plan-generation shape ([profile.n] is forced to [n]) *)
  ack_timeout : int;
  max_events : int;  (** per-run budget: bounds runs a hostile plan wedges *)
  storage : bool;
      (** give every run a WAL-backed store ({!Rsm.Runner.default_store_config}),
          draw storage faults in generated plans, and audit durability *)
}

val default_config : ?n:int -> unit -> config
(** Ben-Or only, 50 plans from seed 1, n=5 (3 clients x 3 commands,
    batch 4), default minority-crash profile, no storage. *)

val safety_ok : 'op Rsm.Runner.report -> bool
(** No checker violations and live-replica digests agree. *)

val complete : 'op Rsm.Runner.report -> bool
(** Every submitted command acked and applied at every live replica. *)

val durable_ok : 'op Rsm.Runner.report -> bool
(** Empty durability audit: every acked command survives at some live
    replica (vacuously true for runs without a store). *)

type outcome = {
  backend_name : string;
  plan_seed : int;
  plan : Plan.t;
  safety : bool;  (** {!safety_ok} of the run *)
  live : bool;  (** {!complete} of the run *)
  durable : bool;  (** {!durable_ok} of the run *)
  acked : int;
  submitted : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

val plan_for : config -> seed:int -> Plan.t
(** The plan a given seed names under this campaign's profile. *)

val run_plan :
  ?quiet:bool ->
  config ->
  backend:Rsm.Backend.t ->
  seed:int ->
  Plan.t ->
  Obj.Kv.op Rsm.Runner.report
(** One deterministic run: the RSM workload for [seed] under the given
    plan.  This is also the shrinker's replay function.  [quiet]
    (default true) runs the engine without tracing; [~quiet:false]
    keeps the last 2,000 trace events and changes no other field. *)

include Sweep.S with type config := config and type outcome := outcome
