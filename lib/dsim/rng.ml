(* The 64-bit state lives unboxed in 8 bytes: a record field of type
   [int64] would box every new state, an allocation per draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let copy = Bytes.copy

(* splitmix64 (Steele, Lea & Flood 2014): advance by the golden gamma,
   then mix.  Inlined, so callers that reduce the output to an [int]
   never box it. *)
let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let split t = create (next_int64 t)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 34)

(* Rejection sampling avoids modulo bias: draw 30 bits when the bound
   fits them, else 61. *)
let rec draw30 t bound =
  let r = bits t land ((1 lsl 30) - 1) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then draw30 t bound else v

let rec draw61 t bound =
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  let v = r mod bound in
  if r - v + (bound - 1) < 0 then draw61 t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound <= 1 lsl 30 then draw30 t bound else draw61 t bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then 1e-18 else u in
  -.mean *. log u

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_list t l =
  let a = Array.of_list l in
  shuffle t a;
  Array.to_list a
