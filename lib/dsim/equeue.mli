(** The engine's event queue: a calendar ring in front of a binary heap.

    Minimum integer key first, insertion order breaking ties.  A ring of
    64 one-tick buckets holds the keys of the window
    [\[floor, floor + 64)]; the {!Heap} holds keys added outside it
    (far-future ones, and ones below the floor).  The floor rises to
    each popped key.  Most engine events land within a few ticks of the
    present, so adding and popping them are O(1), while arbitrary keys
    stay legal.

    Both parts draw on one dense seq counter, and the order (key, seq),
    the tie sets and the seqs are exactly those of a single {!Heap}
    given the same operations: a schedule explorer sees the same choice
    points whatever part an entry lives in. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

val add : t -> key:int -> int -> unit
(** [add t ~key v] inserts [v] with priority [key]; any key is legal. *)

val pop : t -> (int * int) option
(** Remove and return the minimum-key element. *)

val pop_value : t -> int
(** Allocation-free {!pop} of the payload alone; the queue must be
    non-empty (read the key first with {!peek_key_fast}). *)

val peek_key : t -> int option

val peek_key_fast : t -> int
(** The minimum key of a non-empty queue (undefined when empty). *)

val min_key_count : t -> int
(** How many elements are tied for the minimum key (0 when empty). *)

val min_key_values : t -> int list
(** The tied elements, in seq order; removes nothing. *)

val min_key_seqs : t -> int list
(** Insertion sequence numbers of the minimum-key tie set, in insertion
    order (parallel to {!min_key_values}).  Seqs are dense from 0,
    giving queued events a stable per-run identity. *)

val last_seq : t -> int
(** The seq assigned by the most recent {!add} (-1 when none yet). *)

val pop_min_nth : t -> int -> (int * int) option
(** [pop_min_nth t i] removes the [i]-th (0-based, seq order) element of
    the minimum-key tie set; [None] when empty.
    @raise Invalid_argument when [i] is outside the tied range. *)

val drain : t -> (int -> unit) -> int
(** [drain t f] empties the queue, applying [f] to every element in no
    particular order, and returns the largest key it held ([min_int]
    when empty): one pass over the entries, no pops.  The seq counter
    and the floor are kept, so later adds number and order as if the
    entries had been popped.  [f] must not touch the queue. *)

val reset : t -> unit
(** Drop every entry and restart the seqs and the floor from 0, keeping
    the storage: a reset queue behaves exactly like a fresh one. *)
