(** The replicated log: a sequence of numbered consensus slots.

    Each slot is one multivalued consensus instance — {e which replica's
    batch fills this slot?} — reduced to a series of binary instances of
    the pluggable {!Backend} by the classic candidate loop: candidates
    are scanned in ascending proposer order and the first whose binary
    instance decides [true] wins.  Replica [i]'s input to candidate
    [k]'s instance is "does [i] prefer [k]?"; a replica prefers its own
    batch when it brought one and the slot opener's otherwise.  If
    every candidate's instance decides [false] — which validity permits
    on split inputs — a second, unanimous pass over the first non-empty
    proposer decides by the backends' convergence property, mirroring
    the retry round of binary-to-multivalued reductions.

    The loop compares proposers, not batch contents, and the contents
    almost always agree: replicas batch the same pending commands.  So
    each candidate's instance sees a single [true] (its own proposer's),
    usually decides [false], and the unanimous pass is the common case,
    not a rare retry.  On perfbench's [rsm] workload (5 replicas, Raft)
    the non-empty proposals of every slot were identical, about 96% of
    slots ended in the unanimous pass, and a slot took 5.8 binary
    instances; [examples/rsm_demo.ml]'s Raft run takes 37 instances for
    8 slots.  A content-aware reduction would need one instance per
    slot, but it changes every pinned outcome, so it belongs to the
    per-replica log of ROADMAP item 3.

    A slot plays the role of [CS[sn]] in the TO-broadcast reduction
    (SNIPPETS.md, snippet 3): {!propose} registers a replica's batch, a
    per-slot decider process computes the outcome once every live
    replica has proposed (crashed replicas drop out of the expected
    set), and {!decided} exposes the cached result to everyone —
    restoring uniform delivery even when the original command broadcast
    was cut short by a crash. *)

type 'cmd slot_decision = {
  winner : int;  (** proposer whose batch fills the slot *)
  batch : 'cmd list;  (** the winning batch *)
  instances : int;  (** binary backend instances this slot consumed *)
  duration : int;
      (** virtual time the instances took; the decider holds the slot
          that long, so consensus latency is visible to the outer run *)
}

type 'cmd t

val create :
  engine:Dsim.Engine.t ->
  backend:Backend.t ->
  seed:int64 ->
  live:(unit -> int list) ->
  ?view:(unit -> int list option) ->
  ?topology:Dsim.Engine.queue ->
  unit ->
  'cmd t
(** [live] names the replicas a slot must still wait for; it is polled
    while a slot gathers proposals, so crashes release waiting slots.

    [view] is the quorum gate: a slot's decider only advances when it
    returns [Some members] (then waits for those members' proposals);
    [None] stalls the slot — how a majority-less network partition
    blocks consensus-internal progress until heal.  Default:
    [fun () -> Some (live ())], the pre-partition-aware behaviour.

    [topology] must be signalled whenever what [live] or [view] reads
    changes (for {!Group}'s majority view over its network, the
    network's [Netsim.Async_net.topology]).  Default: a queue nobody
    signals, right for a fixed membership. *)

val changed : 'cmd t -> Dsim.Engine.queue
(** Signalled whenever a slot opens, gains a proposal, is decided or
    reseeded, the floor rises, or the cache is forgotten: the queue an
    [Engine.await] over {!opened}, {!decided} or {!floor} names. *)

val propose : 'cmd t -> slot:int -> pid:int -> batch:'cmd list -> unit
(** Register [pid]'s proposal.  The first proposal opens the slot (its
    sender becomes the opener) and spawns the slot's decider process.  A
    replica proposes at most once per slot; repeats are ignored. *)

val opened : 'cmd t -> slot:int -> bool
val opener : 'cmd t -> slot:int -> int option
val decided : 'cmd t -> slot:int -> 'cmd slot_decision option
val decided_count : 'cmd t -> int

val instances_total : 'cmd t -> int
(** Binary consensus instances run so far — the log's cost metric
    (batching amortizes it across commands). *)

(** {1 Stable-storage hooks}

    The slot cache models what live peers collectively remember, which
    is why a recovering replica can normally catch up by replaying
    decisions.  Honest crash–recovery needs two corrections: the cache
    must be wiped when {e nobody} is left alive (total outage), and
    recovering replicas must be able to re-feed it from their durable
    WALs and offer snapshot-based state transfer to peers that fell
    behind a compaction point. *)

val forget_volatile : 'cmd t -> unit
(** Drop every cached slot (and the snapshot floor).  Call when the
    last live replica crashes; decisions must then be reseeded from
    stable storage as replicas recover. *)

val reseed : 'cmd t -> slot:int -> winner:int -> batch:'cmd list -> unit
(** Re-install a decision recovered from a replica's WAL.  No-op if the
    slot is already cached (first recovery wins; all WALs agree by slot
    agreement).  Reseeded decisions cost no backend instances. *)

type floor = {
  owner : int;  (** replica offering the snapshot (the state donor) *)
  upto : int;  (** highest slot the snapshot covers *)
  state : string;  (** opaque app snapshot payload *)
  cids : int list;  (** every command id delivered up to [upto] *)
}

val set_floor :
  'cmd t -> owner:int -> upto:int -> state:string -> cids:int list -> unit
(** Advertise a durable snapshot for state transfer.  Kept only if it
    covers more than the current floor.  A replica whose next slot is at
    or below the floor cannot replay slot-by-slot (the donor may have
    compacted those slots away) and installs the snapshot instead. *)

val floor : 'cmd t -> floor option
