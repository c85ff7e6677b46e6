(** Per-phase records for quorum tallies, in an array indexed by phase.

    A tally keeps one record per protocol phase (counters of distinct
    senders and the like).  Reads are an array index: reading a phase
    with no record returns the shared [empty] record and creates
    nothing, so a scheduler poll can read freely.  Only writers create
    records. *)

type 'a t

val create : empty:'a -> make:(unit -> 'a) -> 'a t
(** [empty] is what every absent phase reads as; it must never be
    mutated.  [make] builds a fresh record for a phase's first write. *)

val get : 'a t -> int -> 'a
(** The phase's record, or [empty]. *)

val obtain : 'a t -> int -> 'a
(** The phase's record, created with [make] on first use.
    @raise Invalid_argument on a negative phase. *)

val forget_below : 'a t -> int -> unit
(** Drop the records of every phase below the given one (memory
    hygiene: finished phases are never read again).  Amortized O(1) per
    phase. *)
