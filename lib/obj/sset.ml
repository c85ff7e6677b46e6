(* A set of strings.  Add/Remove report whether they changed the set
   (was-absent / was-present), Mem reports membership — all three
   responses depend on the whole prior history, so reordered or lost
   operations are visible. *)

module S = Set.Make (String)

type state = S.t
type op = Add of string | Remove of string | Mem of string
type resp = Flag of bool

let name = "set"
let init = S.empty

let apply st = function
  | Add k -> (S.add k st, Flag (not (S.mem k st)))
  | Remove k -> (S.remove k st, Flag (S.mem k st))
  | Mem k -> (st, Flag (S.mem k st))

let pp_op ppf = function
  | Add k -> Format.fprintf ppf "ADD %s" k
  | Remove k -> Format.fprintf ppf "REMOVE %s" k
  | Mem k -> Format.fprintf ppf "MEM %s" k

let op_to_string = function
  | Add k -> "A " ^ Store.Codec.quoted k
  | Remove k -> "R " ^ Store.Codec.quoted k
  | Mem k -> "M " ^ Store.Codec.quoted k

let op_of_string s =
  if String.length s < 2 then invalid_arg ("Sset.op_of_string: " ^ s)
  else
    let rest = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'A' -> Scanf.sscanf rest " %S" (fun k -> Add k)
    | 'R' -> Scanf.sscanf rest " %S" (fun k -> Remove k)
    | 'M' -> Scanf.sscanf rest " %S" (fun k -> Mem k)
    | _ -> invalid_arg ("Sset.op_of_string: " ^ s)

let resp_to_string (Flag b) = string_of_bool b

let state_to_string st =
  let xs = S.elements st in
  String.concat " "
    (Store.Codec.int (List.length xs) :: List.map Store.Codec.quoted xs)

let state_of_string s =
  let ib = Scanf.Scanning.from_string s in
  let n = Scanf.bscanf ib " %d" Fun.id in
  List.init n (fun _ -> Scanf.bscanf ib " %S" Fun.id) |> S.of_list

let digest = state_to_string

let gen_op ~rng ~key ~tag:_ =
  let roll = Dsim.Rng.int rng 100 in
  if roll < 45 then Add key else if roll < 70 then Remove key else Mem key
