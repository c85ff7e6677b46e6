type tx_status = Prepared | Committed | Aborted

type tx_entry = {
  status : tx_status;
  buffered : Cmd.wop list;  (* this shard's slice, held while Prepared *)
}

type output =
  | O_kv of Obj.Kv.resp
  | O_vote of bool
  | O_decided of bool
  | O_outcome of bool

module M = Obj.Kv.M

type t = {
  shard : int;
  mutable kv : Obj.Kv.state;
  txs : (int, tx_entry) Hashtbl.t;
  locks : (string, int) Hashtbl.t;  (* key -> holding txid *)
}

let create ~shard =
  { shard; kv = Obj.Kv.init; txs = Hashtbl.create 32; locks = Hashtbl.create 32 }

let shard t = t.shard
let lookup t k = M.find_opt k t.kv
let locked_keys t = Hashtbl.length t.locks

let tx_status t txid =
  Option.map (fun e -> e.status) (Hashtbl.find_opt t.txs txid)

let apply_kv t c =
  let kv, resp = Obj.Kv.apply t.kv c in
  t.kv <- kv;
  resp

let apply_wop t = function
  | Cmd.W_set (k, v) -> t.kv <- M.add k v t.kv
  | Cmd.W_add (k, d) ->
      let cur =
        match M.find_opt k t.kv with
        | Some v -> ( try int_of_string v with _ -> 0)
        | None -> 0
      in
      t.kv <- M.add k (string_of_int (cur + d)) t.kv

let my_slice t (tx : Cmd.tx) =
  match List.assoc_opt t.shard tx.ops with Some w -> w | None -> []

let unlock t txid wops =
  List.iter
    (fun w ->
      let k = Cmd.wop_key w in
      match Hashtbl.find_opt t.locks k with
      | Some holder when holder = txid -> Hashtbl.remove t.locks k
      | _ -> ())
    wops

(* Resolve a Prepared transaction with the given decision; the fenced
   paths (no buffered prepare) are handled by the callers. *)
let settle t txid entry commit =
  if commit then List.iter (apply_wop t) entry.buffered;
  unlock t txid entry.buffered;
  Hashtbl.replace t.txs txid
    { status = (if commit then Committed else Aborted); buffered = [] }

let apply_prepare t (tx : Cmd.tx) =
  match Hashtbl.find_opt t.txs tx.txid with
  | Some { status = Prepared; _ } -> O_vote true
  | Some { status = Committed; _ } | Some { status = Aborted; _ } ->
      (* fenced: the decision beat the prepare here; too late to lock *)
      O_vote false
  | None ->
      let slice = my_slice t tx in
      let keys = List.sort_uniq compare (List.map Cmd.wop_key slice) in
      let conflict =
        List.exists
          (fun k ->
            match Hashtbl.find_opt t.locks k with
            | Some holder -> holder <> tx.txid
            | None -> false)
          keys
      in
      if conflict || slice = [] then begin
        (* vote no (a prepare with no local ops is malformed routing) *)
        Hashtbl.replace t.txs tx.txid { status = Aborted; buffered = [] };
        O_vote false
      end
      else begin
        List.iter (fun k -> Hashtbl.replace t.locks k tx.txid) keys;
        Hashtbl.replace t.txs tx.txid { status = Prepared; buffered = slice };
        O_vote true
      end

let apply_decision t txid commit mk =
  match Hashtbl.find_opt t.txs txid with
  | Some ({ status = Prepared; _ } as e) ->
      settle t txid e commit;
      mk commit
  | Some { status = Committed; _ } -> mk true
  | Some { status = Aborted; _ } -> mk false
  | None ->
      (* fence: remember the decision so a late prepare votes no *)
      Hashtbl.replace t.txs txid
        { status = (if commit then Committed else Aborted); buffered = [] };
      mk commit

let apply t (c : Cmd.t) =
  match c with
  | Kv kc -> O_kv (apply_kv t kc)
  | Prepare tx -> apply_prepare t tx
  | Decide { txid; commit } -> apply_decision t txid commit (fun c -> O_decided c)
  | Outcome { txid; commit } ->
      apply_decision t txid commit (fun c -> O_outcome c)

(* {2 Serialization} — single line, counted tokens, strings quoted by
   {!Store.Codec.quoted} (same discipline as {!Cmd}'s codec); everything
   emitted in sorted order so replicas in equal states produce
   byte-equal strings. *)

let status_char = function Prepared -> 'P' | Committed -> 'C' | Aborted -> 'A'

let status_of_char = function
  | 'P' -> Prepared
  | 'C' -> Committed
  | 'A' -> Aborted
  | c -> invalid_arg (Printf.sprintf "Machine.restore: bad status %c" c)

let serialize t =
  let b = Buffer.create 256 in
  let add s =
    Buffer.add_char b ' ';
    Buffer.add_string b s
  in
  Buffer.add_string b (Store.Codec.int t.shard);
  add (Store.Codec.int (M.cardinal t.kv));
  M.iter
    (fun k v ->
      add (Store.Codec.quoted k);
      add (Store.Codec.quoted v))
    t.kv;
  let txs =
    Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.txs []
    |> List.sort compare
  in
  add (Store.Codec.int (List.length txs));
  List.iter
    (fun (id, e) ->
      add (Store.Codec.int id);
      Buffer.add_char b ' ';
      Buffer.add_char b (status_char e.status);
      add (Store.Codec.int (List.length e.buffered));
      List.iter (fun w -> add (Cmd.wop_to_string w)) e.buffered)
    txs;
  Buffer.contents b

let digest = serialize
let snapshot = serialize

let restore s =
  let ib = Scanf.Scanning.from_string s in
  let int () = Scanf.bscanf ib " %d" Fun.id in
  let str () = Scanf.bscanf ib " %S" Fun.id in
  let shard = int () in
  let t = create ~shard in
  let nkv = int () in
  for _ = 1 to nkv do
    let k = str () in
    let v = str () in
    t.kv <- M.add k v t.kv
  done;
  let ntx = int () in
  for _ = 1 to ntx do
    let id = int () in
    let st = Scanf.bscanf ib " %c" status_of_char in
    let nw = int () in
    let buffered =
      List.init nw (fun _ ->
          Scanf.bscanf ib " %c" (fun tag ->
              match tag with
              | 'S' -> Scanf.bscanf ib " %S %S" (fun k v -> Cmd.W_set (k, v))
              | 'A' -> Scanf.bscanf ib " %S %d" (fun k d -> Cmd.W_add (k, d))
              | c ->
                  invalid_arg
                    (Printf.sprintf "Machine.restore: bad wop tag %c" c)))
    in
    Hashtbl.replace t.txs id { status = st; buffered };
    if st = Prepared then
      List.iter
        (fun w -> Hashtbl.replace t.locks (Cmd.wop_key w) id)
        buffered
  done;
  t
