(** An array-backed binary min-heap, specialized for the event queue.

    Elements are ordered by an integer key (the virtual timestamp) with a
    monotonically increasing sequence number as a tiebreaker, so two events
    scheduled for the same instant fire in insertion order — a requirement
    for deterministic simulation.

    The storage is struct-of-arrays (parallel [keys]/[seqs]/[vals]
    arrays); [add] and [pop_value] allocate nothing once the arrays are
    warm.  The sift order is bit-identical to the classic boxed-entry
    implementation, so the tie sets {!fold_min_indices} enumerates (and
    the choice oracle observes) are unchanged. *)

type t

val create : unit -> t
(** An empty heap. *)

val length : t -> int
(** Number of queued elements. *)

val is_empty : t -> bool

val add : t -> key:int -> int -> unit
(** [add t ~key v] inserts [v] with priority [key]. Insertion order breaks
    ties. *)

val add_seq : t -> key:int -> seq:int -> int -> unit
(** [add] with a caller-assigned tiebreak seq, for a queue that numbers
    its entries across several structures ({!Equeue}).  Seqs must be
    unique; a heap filled this way leaves {!last_seq} at -1. *)

val pop : t -> (int * int) option
(** Remove and return the minimum-key element, or [None] when empty. *)

val pop_value : t -> int
(** Zero-allocation {!pop}: remove and return just the minimum element's
    payload.  The caller must know the heap is non-empty (check
    {!is_empty}) and can read the key beforehand with {!peek_key_fast}. *)

val peek_key : t -> int option
(** The smallest key currently queued, without removing it. *)

val peek_key_fast : t -> int
(** Unchecked {!peek_key}: the smallest key, assuming the heap is
    non-empty.  Undefined (may raise [Invalid_argument]) when empty. *)

val min_key_count : t -> int
(** How many queued elements are tied for the smallest key (0 when
    empty).  O(ties), not O(size). *)

val min_key_values : t -> int list
(** The elements tied for the smallest key, in insertion (seq) order —
    the order {!pop} would surface them.  Does not remove anything. *)

val min_key_seqs : t -> int list
(** The insertion sequence numbers of the elements tied for the smallest
    key, in insertion order — positionally parallel to
    {!min_key_values}.  Seqs are assigned densely from 0 by {!add}, so
    they give each queued element a stable identity a schedule explorer
    can track across consultations. *)

val last_seq : t -> int
(** The sequence number assigned by the most recent {!add} (-1 before
    the first add). *)

val pop_min_nth : t -> int -> (int * int) option
(** [pop_min_nth t i] removes and returns the [i]-th element (insertion
    order, 0-based) among those tied for the smallest key.
    [pop_min_nth t 0] is {!pop}.  [None] when the heap is empty.
    @raise Invalid_argument when [i] is outside the tied range. *)

val fold_min_indices : t -> 'b -> ('b -> int -> 'b) -> 'b
(** Fold over the array indices of the elements tied for the smallest
    key, in heap-array order (not seq order).  Exposed for the
    equivalence tests; ordinary callers want {!min_key_values}. *)

val reset : t -> unit
(** Drop every element and restart the seqs from 0, keeping the
    storage: a reset heap behaves exactly like a fresh one. *)

val drain : t -> (int -> unit) -> int
(** [drain t f] empties the heap, applying [f] to every element in
    array order (not key order), and returns the largest key it held
    ([min_int] when empty).  The tiebreak sequence is kept.  [f] must
    not touch the heap. *)
