(** Executable total-order monitor for the RSM layer, in the style of
    {!Consensus.Monitor}: record what happened, then ask for violations.
    An empty violation list over many adversarial runs is the
    experimental analogue of the TO-broadcast correctness lemmas.

    Checked properties over the recorded applications:

    - {b TO integrity}: every applied command was submitted by a client.
    - {b TO no-duplication}: no replica applies a command twice.
    - {b Slot agreement}: every replica that fills slot [s] applies the
      same command sequence in it (the per-instance consensus guarantee).
    - {b Prefix agreement (total order)}: any two replicas' full applied
      sequences are prefix-related — a crashed replica holds a prefix of
      the survivors' common sequence.

    {!check_complete} separately checks the closed-loop liveness claim —
    every submitted command reached every live replica — which only
    holds after a run that was allowed to drain. *)

type violation = {
  property : string;
  replica : int option;
  slot : int option;
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit

type t

val create : unit -> t

val record_submitted : t -> cid:int -> unit
(** Declare a client-submitted command id (re-submissions are idempotent). *)

val record_applied : t -> replica:int -> slot:int -> cid:int -> unit
(** Record that [replica] applied command [cid] as part of slot [slot];
    calls must arrive in the replica's apply order. *)

val record_acked : t -> cid:int -> unit
(** The client observed an acknowledgement for [cid]. Acked commands
    are the durability audit's obligation set: once acked, a command
    must survive any sequence of crash–recoveries. *)

val record_crashed : t -> replica:int -> survived:int -> unit
(** [replica] crashed with only its first [survived] applications
    durable; the volatile tail of its recorded sequence is discarded so
    every property is judged against what recovery reproduces. *)

val record_installed : t -> replica:int -> from_replica:int -> upto_slot:int -> unit
(** [replica] installed [from_replica]'s snapshot covering slots
    [<= upto_slot]: its recorded history is replaced by the donor's
    prefix (state transfer adopts the donor's logical history). *)

val applied_seq : t -> replica:int -> (int * int) list
(** [(slot, cid)] in apply order. *)

val check : t -> violation list
(** Integrity, no-duplication, slot agreement and prefix agreement. *)

val check_complete : t -> live:int list -> violation list
(** Every submitted command applied at every replica in [live]. *)

val check_durable : t -> live:int list -> violation list
(** The durability audit: every {e acknowledged} command is present in
    at least one replica in [live]. Vacuously empty when [live] is
    empty (nobody is left to ask). Strictly weaker
    than {!check_complete} (some live replica vs. every live replica,
    acked vs. submitted), so it isolates ack-durability bugs such as
    acking before fsync. *)
