type wop = W_set of string * string | W_add of string * int

type tx = {
  txid : int;
  participants : int list;
  ops : (int * wop list) list;
}

type t =
  | Kv of Obj.Kv.op
  | Prepare of tx
  | Decide of { txid : int; commit : bool }
  | Outcome of { txid : int; commit : bool }

let wop_key = function W_set (k, _) -> k | W_add (k, _) -> k

(* {2 Command ids}

   base = the Runner's command id (client in the high bits, per-client
   sequence low); sub-command cids append a 3-bit tag so every record
   kind a transaction spawns has its own dedup identity. *)

let base = Rsm.Runner.cid
let kv_cid ~client ~seq = base ~client ~seq * 8
let prepare_cid ~txid = (txid * 8) + 1
let decide_cid ~txid ~commit = (txid * 8) + if commit then 2 else 3
let outcome_cid ~txid ~commit = (txid * 8) + if commit then 4 else 5

type cid_kind =
  | K_kv of int
  | K_prepare of int
  | K_decide of int * bool
  | K_outcome of int * bool

let kind_of_cid cid =
  let b = cid / 8 in
  match cid land 7 with
  | 0 -> K_kv b
  | 1 -> K_prepare b
  | 2 -> K_decide (b, true)
  | 3 -> K_decide (b, false)
  | 4 -> K_outcome (b, true)
  | 5 -> K_outcome (b, false)
  | _ -> invalid_arg (Printf.sprintf "Cmd.kind_of_cid: unknown tag in %d" cid)

(* {2 Codec} — single line, space-separated tokens, strings quoted by
   {!Store.Codec.quoted} (which escapes any embedded newline, keeping
   WAL records one per line). *)

module Codec = Store.Codec

let wop_to_string = function
  | W_set (k, v) -> String.concat " " [ "S"; Codec.quoted k; Codec.quoted v ]
  | W_add (k, d) -> String.concat " " [ "A"; Codec.quoted k; Codec.int d ]

let encode_tx b tx =
  let add s =
    Buffer.add_char b ' ';
    Buffer.add_string b s
  in
  Buffer.add_string b (Codec.int tx.txid);
  add (Codec.int (List.length tx.participants));
  List.iter (fun p -> add (Codec.int p)) tx.participants;
  add (Codec.int (List.length tx.ops));
  List.iter
    (fun (shard, wops) ->
      add (Codec.int shard);
      add (Codec.int (List.length wops));
      List.iter (fun w -> add (wop_to_string w)) wops)
    tx.ops

let to_string = function
  | Kv c -> "K " ^ Obj.Kv.op_to_string c
  | Decide { txid; commit } ->
      String.concat " " [ "D"; Codec.int txid; (if commit then "1" else "0") ]
  | Outcome { txid; commit } ->
      String.concat " " [ "O"; Codec.int txid; (if commit then "1" else "0") ]
  | Prepare tx ->
      let b = Buffer.create 64 in
      Buffer.add_string b "P ";
      encode_tx b tx;
      Buffer.contents b

let decode_tx ib =
  let int () = Scanf.bscanf ib " %d" Fun.id in
  let txid = int () in
  let np = int () in
  let participants = List.init np (fun _ -> int ()) in
  let nslices = int () in
  let ops =
    List.init nslices (fun _ ->
        let shard = int () in
        let nw = int () in
        let wops =
          List.init nw (fun _ ->
              Scanf.bscanf ib " %c" (fun tag ->
                  match tag with
                  | 'S' ->
                      Scanf.bscanf ib " %S %S" (fun k v -> W_set (k, v))
                  | 'A' -> Scanf.bscanf ib " %S %d" (fun k d -> W_add (k, d))
                  | c ->
                      invalid_arg
                        (Printf.sprintf "Cmd.of_string: bad wop tag %c" c)))
        in
        (shard, wops))
  in
  { txid; participants; ops }

let of_string s =
  if String.length s < 2 then invalid_arg ("Cmd.of_string: " ^ s)
  else
    let rest = String.sub s 2 (String.length s - 2) in
    match s.[0] with
    | 'K' -> Kv (Obj.Kv.op_of_string rest)
    | 'D' ->
        Scanf.sscanf rest "%d %d" (fun txid c ->
            Decide { txid; commit = c = 1 })
    | 'O' ->
        Scanf.sscanf rest "%d %d" (fun txid c ->
            Outcome { txid; commit = c = 1 })
    | 'P' -> Prepare (decode_tx (Scanf.Scanning.from_string rest))
    | _ -> invalid_arg ("Cmd.of_string: " ^ s)

let pp ppf = function
  | Kv c -> Format.fprintf ppf "Kv(%a)" Obj.Kv.pp_op c
  | Prepare tx ->
      Format.fprintf ppf "Prepare(tx=%d,[%s])" tx.txid
        (String.concat "," (List.map string_of_int tx.participants))
  | Decide { txid; commit } ->
      Format.fprintf ppf "Decide(tx=%d,%s)" txid
        (if commit then "commit" else "abort")
  | Outcome { txid; commit } ->
      Format.fprintf ppf "Outcome(tx=%d,%s)" txid
        (if commit then "commit" else "abort")
