(** The universal-construction fault campaign, a {!Sweep} cell:
    objects x backends x plan seeds (keys in that order, object-major),
    Wing–Gong-checking every run.

    The per-run gate is {!Workload.Obj_load.summary.ok}: zero
    total-order/completeness/durability violations, agreeing
    live-replica digests, a quiescent engine, {e and} a linearizable
    history w.r.t. the object's sequential spec. *)

type config = {
  backends : Rsm.Backend.t list;
  objects : string list;  (** names from {!Obj.Registry} *)
  plans : int;  (** fault plans (= seeds) per object x backend cell *)
  first_seed : int;
  n : int;
  clients : int;
  commands : int;  (** per client; [clients * commands <= 62] (WG cap) *)
  batch : int;
  storage : bool;  (** give replicas WAL-backed disks + storage faults *)
}

val default_config : ?n:int -> unit -> config
(** Ben-Or only, every registry object, 5 plans from seed 1, n=5,
    3 clients x 4 commands, batch 4, no storage. *)

type outcome = {
  summary : Workload.Obj_load.summary;
  plan_seed : int;
  plan : Plan.t;
}

val plan_for : config -> seed:int -> Plan.t
(** The plan a given seed names: {!Gen.default}'s profile of [n]
    nodes, with storage faults when [storage] is set. *)

include Sweep.S with type config := config and type outcome := outcome
