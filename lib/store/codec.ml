(* Digits are taken from the non-positive value, so [min_int] needs no
   special case. *)
let rec width m w = if m > -10 then w else width (m / 10) (w + 1)

let rec fill b m i =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then fill b (m / 10) (i - 1)

let int n =
  let m = if n < 0 then n else -n in
  let len = width m 1 + if n < 0 then 1 else 0 in
  let b = Bytes.create len in
  if n < 0 then Bytes.unsafe_set b 0 '-';
  fill b m (len - 1);
  Bytes.unsafe_to_string b

(* [String.escaped] returns [s] itself when no byte needs escaping, so
   a plain string costs one scan, one allocation and one blit. *)
let quoted s =
  let e = String.escaped s in
  let n = String.length e in
  let b = Bytes.make (n + 2) '"' in
  Bytes.blit_string e 0 b 1 n;
  Bytes.unsafe_to_string b
