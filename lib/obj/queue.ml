(* FIFO queue of strings.  The batched two-list representation keeps
   [apply] O(1) amortized; every externally visible string (digest,
   snapshot) is computed from the canonical element order, so two
   states holding the same queue differently batched are
   indistinguishable. *)

type state = { front : string list; back : string list }
type op = Enq of string | Deq
type resp = Enq_ok | Deq_got of string option

let name = "queue"
let init = { front = []; back = [] }
let to_list st = st.front @ List.rev st.back

let apply st = function
  | Enq v -> ({ st with back = v :: st.back }, Enq_ok)
  | Deq -> (
      match st.front with
      | x :: f -> ({ st with front = f }, Deq_got (Some x))
      | [] -> (
          match List.rev st.back with
          | [] -> (st, Deq_got None)
          | x :: f -> ({ front = f; back = [] }, Deq_got (Some x))))

let pp_op ppf = function
  | Enq v -> Format.fprintf ppf "ENQ %s" v
  | Deq -> Format.fprintf ppf "DEQ"

let op_to_string = function Enq v -> "E " ^ Store.Codec.quoted v | Deq -> "D"

let op_of_string s =
  if s = "D" then Deq
  else if String.length s > 1 && s.[0] = 'E' then
    Scanf.sscanf s "E %S" (fun v -> Enq v)
  else invalid_arg ("Queue.op_of_string: " ^ s)

let resp_to_string = function
  | Enq_ok -> "ok"
  | Deq_got None -> "deq -"
  | Deq_got (Some v) -> "deq " ^ Store.Codec.quoted v

let state_to_string st =
  let xs = to_list st in
  String.concat " "
    (Store.Codec.int (List.length xs) :: List.map Store.Codec.quoted xs)

let state_of_string s =
  let ib = Scanf.Scanning.from_string s in
  let n = Scanf.bscanf ib " %d" Fun.id in
  { front = List.init n (fun _ -> Scanf.bscanf ib " %S" Fun.id); back = [] }

let digest = state_to_string

let gen_op ~rng ~key:_ ~tag =
  if Dsim.Rng.int rng 100 < 60 then Enq tag else Deq
