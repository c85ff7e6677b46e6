(** Plan interpreter: gives a {!Plan.t} effect against a live run.

    Two composable halves, matching the two fault surfaces of
    {!Netsim.Async_net}:

    - {b node/topology actions} (crash, restart, partition, heal) become
      timer events scheduled in {!Dsim.Engine} that call back into a
      {!handle} of effectful operations;
    - {b message windows} (drop / duplicate / delay) compile into a pure
      per-message {!policy} keyed on each envelope's send time, suitable
      for {!Netsim.Async_net.create}'s [?policy] hook — no mutable
      activation state, so the same plan yields the same verdicts in
      every replay. *)

type handle = {
  crash : int -> unit;
  restart : int -> unit;
  partition : int list list -> unit;
  heal : unit -> unit;
}
(** The effectful operations a plan's node/topology actions drive. *)

val policy :
  Plan.t -> 'msg Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict
(** The per-message adversary the plan's windows describe: the first
    window (in plan order) open at the envelope's send time and matching
    its endpoints decides the verdict; otherwise deliver. *)

val store_policy : Plan.t -> Store.Policy.t
(** The storage fault policy the plan's torn / sync-loss / io-err /
    stall windows describe, for {!Store.Disk}'s policy hook — pure and
    time-keyed like {!policy}, so replays see identical disk faults. *)

val schedule : engine:Dsim.Engine.t -> handle -> Plan.t -> unit
(** Schedule every node/topology action of the plan as an engine timer
    event (times in the past fire immediately); each firing also emits a
    ["nemesis"] trace event. *)

val handle_of_net : 'msg Netsim.Async_net.t -> handle
(** Drive a bare network: crash/restart/partition/heal map directly to
    the net's own primitives (no protocol processes are touched). *)

val install_rsm : Plan.t -> (_, _, _) Rsm.Group.t -> unit
(** The {!Rsm.Runner.config.inject} hook for a plan: installs the
    message policy and the storage fault policy on the group, and
    schedules all node/topology actions on the group's engine against
    its {!Rsm.Group.crash}, {!Rsm.Group.restart}, {!Rsm.Group.partition}
    and {!Rsm.Group.heal}.  Storage windows only bite when the run has
    a [store] configured. *)

val install_detect : Plan.t -> 'msg Netsim.Async_net.t -> unit
(** The [install] hook of {!Detect.Runner.run} for a plan: {!schedule}
    over {!handle_of_net}.  The run takes {!policy} as its [policy], so
    partitions, crashes and message windows perturb the failure
    detector's heartbeat traffic and the indulgent backend's protocol
    messages alike (storage windows are inert — detector runs own no
    disks). *)

val install_shard : Plan.t array -> (_, _, _) Rsm.Group.t array -> unit
(** The {!Shard.Runner.config.inject} hook for a plan {e per shard}:
    {!install_rsm} of plan [s] on group [s].  Each shard gets its own
    message policy, storage policy and scheduled topology actions, and
    replica pids in a plan are indices within that shard's group, so
    partitions and disk faults hit shards independently — the
    cross-shard 2PC layer is what has to cope. *)
