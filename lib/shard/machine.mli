(** The per-shard replicated state machine: a key-value store plus the
    transaction table 2PC needs.

    Deterministic by construction — votes are a pure function of the
    lock table, so every replica of a shard records the same vote for
    the same prepare, and the vote can be read off the log by anyone
    (which is what makes coordinator recovery possible).

    Rules enforced here (the commit protocol's participant side):
    - [Prepare tx]: if the transaction is already fenced
      (decided/aborted) or any of its keys is locked by another live
      prepare, vote {b no} (recording the transaction as aborted —
      no waiting, so there is no distributed deadlock); otherwise lock
      its keys, buffer its ops and vote {b yes}.
    - [Decide]/[Outcome] with a buffered prepare: apply the ops on
      commit, drop them on abort, release the locks either way.  The
      {e first} decision applied for a txid is canonical; later
      conflicting records are no-ops that report the canonical status.
    - [Decide]/[Outcome] with {e no} buffered prepare: fence the txid
      with the decision so a late prepare votes no.  Nothing is
      applied — which is exactly the atomicity breach the cross-shard
      checker flags if a commit ever takes this path. *)

type tx_status = Prepared | Committed | Aborted

type output =
  | O_kv of Obj.Kv.resp
  | O_vote of bool  (** this shard's vote on the prepare *)
  | O_decided of bool  (** canonical decision after this decide *)
  | O_outcome of bool  (** canonical per-shard outcome after this record *)

type t

val create : shard:int -> t
val shard : t -> int

val apply : t -> Cmd.t -> output
(** Deterministic; a [Prepare] applies only this shard's slice. *)

val lookup : t -> string -> string option
val tx_status : t -> int -> tx_status option
val locked_keys : t -> int

val digest : t -> string
(** Canonical (sorted) serialization; equal iff states equal. *)

val snapshot : t -> string
(** Single-line serialization of the full state (kv, transaction table,
    buffered ops, locks); [digest (restore (snapshot t)) = digest t]. *)

val restore : string -> t
