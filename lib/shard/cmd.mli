(** Commands replicated through a shard's consensus log.

    A shard group totally orders values of {!t}: plain key-value
    commands ([Kv]) plus the three two-phase-commit record kinds.  The
    2PC records being ordinary log entries is the whole point of the
    design — prepare votes, the commit/abort decision and the final
    outcomes are replicated and recovered exactly like data commands,
    so a crashed coordinator's transactions are finished from the logs
    rather than from anyone's memory.

    {b Command-id scheme.}  Every submission carries a [cid] the
    replica group de-duplicates on.  A transaction id packs the issuing client
    in the high bits ([txid = Rsm.Runner.cid ~client ~seq], the scheme
    {!Rsm.Runner} uses for plain commands, so [seq < 2^20]:
    {!Runner.run} refuses longer op lists, whose ids would collide); the
    cids of the records a transaction spawns are [txid * 8 + tag] with a
    distinct tag per record kind {e and} decision polarity, so a
    commit-decide and an abort-decide for the same transaction never
    collide while identical re-submissions still deduplicate. *)

(** A write operation inside a transaction ([W_add] is the bank
    example's increment — it makes transfer conservation checkable). *)
type wop = W_set of string * string | W_add of string * int

type tx = {
  txid : int;
  participants : int list;  (** sorted shard ids; head coordinates *)
  ops : (int * wop list) list;
      (** the full transaction, sliced per participant shard — carried
          in every [Prepare] so recovery can finish the transaction
          from any one participant's log *)
}

type t =
  | Kv of Obj.Kv.op  (** single-shard, coordination-free *)
  | Prepare of tx  (** participant votes by applying this *)
  | Decide of { txid : int; commit : bool }
      (** coordinator-shard record; the {e first} applied decide for a
          txid is the canonical decision *)
  | Outcome of { txid : int; commit : bool }
      (** propagates the decision to the other participants *)

val wop_key : wop -> string

(** {1 Command ids} *)

val base : client:int -> seq:int -> int
(** Also the [txid] when the operation is a transaction. *)

val kv_cid : client:int -> seq:int -> int
val prepare_cid : txid:int -> int
val decide_cid : txid:int -> commit:bool -> int
val outcome_cid : txid:int -> commit:bool -> int

(** What a cid was for, recovered from its tag bits. *)
type cid_kind =
  | K_kv of int  (** the base: client and sequence number *)
  | K_prepare of int  (** txid *)
  | K_decide of int * bool  (** txid, polarity *)
  | K_outcome of int * bool

val kind_of_cid : int -> cid_kind

(** {1 Codec} — total one-line encodings for WAL records, mirroring
    {!Obj.Kv.op_to_string}. *)

val wop_to_string : wop -> string
val to_string : t -> string

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)

val pp : Format.formatter -> t -> unit
