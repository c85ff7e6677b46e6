type t = {
  clients : int;
  ops_per_client : int;
  keys : int;
  zipf_s : float;
  tx_pct : int;
  tx_span : int;
  shards : int;
  seed : int;
}

let default =
  {
    clients = 16;
    ops_per_client = 4;
    keys = 64;
    zipf_s = 1.1;
    tx_pct = 10;
    tx_span = 2;
    shards = 1;
    seed = 1;
  }

let validate l =
  if l.clients < 1 || l.ops_per_client < 0 then
    invalid_arg "Load: need clients >= 1 and ops >= 0";
  if l.keys < 1 then invalid_arg "Load: need at least one key";
  if l.tx_pct < 0 || l.tx_pct > 100 then invalid_arg "Load: tx_pct in [0,100]";
  if l.tx_span < 1 then invalid_arg "Load: tx_span >= 1";
  if l.shards < 1 then invalid_arg "Load: shards >= 1"

let key_name i = Printf.sprintf "k%d" i

let make_cdf ~keys ~s =
  if keys < 1 then invalid_arg "Load.make_cdf: need at least one key";
  let w = Array.init keys (fun i -> (1. /. float_of_int (i + 1)) ** s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick rng cdf =
  let u = Dsim.Rng.float rng 1.0 in
  let n = Array.length cdf in
  let rec bs lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then bs (mid + 1) hi else bs lo mid
  in
  min (n - 1) (bs 0 (n - 1))

(* The shard-aware key pools: key i belongs to the shard the sharded
   runner's router would place it on, so a generator targeting S shards
   can draw balanced per-shard traffic with Zipfian skew *inside* each
   shard's pool (the hot-key model: every shard has its own hot keys).
   With shards = 1 this degenerates to plain Zipf over all keys. *)
let pools ~shards ~keys =
  let router = Shard.Router.create ~shards in
  let pools = Array.make shards [] in
  for i = keys - 1 downto 0 do
    let s = Shard.Router.shard_of_key router (key_name i) in
    pools.(s) <- i :: pools.(s)
  done;
  (* a pool can be empty for tiny keyspaces; give it a fallback key *)
  Array.map (fun p -> Array.of_list (if p = [] then [ 0 ] else p)) pools

type sampler = { pools : int array array; cdfs : float array array }

let sampler ~shards ~keys ~zipf_s =
  let pools = pools ~shards ~keys in
  { pools; cdfs = Array.map (fun p -> make_cdf ~keys:(Array.length p) ~s:zipf_s) pools }

let sample_key sampler rng ~shard =
  sampler.pools.(shard).(zipf_pick rng sampler.cdfs.(shard))

let gen_kv_ops ?(shards = 1) ?(keys = 8) ?(zipf_s = 0.) ~seed ~clients
    ~commands () =
  let rng = Dsim.Rng.create seed in
  let sm = sampler ~shards ~keys ~zipf_s in
  Array.init clients (fun c ->
      List.init commands (fun k ->
          let shard = Dsim.Rng.int rng shards in
          let key = key_name (sample_key sm rng ~shard) in
          Obj.Kv.gen_op ~rng ~key ~tag:(Printf.sprintf "c%d.%d" c k)))

let gen_obj_ops (type a) (module O : Obj.Spec.S with type op = a) ?(keys = 8)
    ?(zipf_s = 0.) ~seed ~clients ~commands () : a list array =
  let rng = Dsim.Rng.create seed in
  let sm = sampler ~shards:1 ~keys ~zipf_s in
  Array.init clients (fun c ->
      List.init commands (fun k ->
          let key = key_name (sample_key sm rng ~shard:0) in
          O.gen_op ~rng ~key ~tag:(Printf.sprintf "c%d.%d" c k)))

let gen_shard_ops l =
  validate l;
  let rng = Dsim.Rng.create (Int64.of_int l.seed) in
  let sm = sampler ~shards:l.shards ~keys:l.keys ~zipf_s:l.zipf_s in
  Array.init l.clients (fun c ->
      List.init l.ops_per_client (fun k ->
          if Dsim.Rng.int rng 100 < l.tx_pct then begin
            (* a multi-key transaction spanning distinct shards when the
               deployment has them: one key from each of [tx_span]
               consecutive shards starting at a random one *)
            let span = min l.tx_span l.shards in
            let start = Dsim.Rng.int rng l.shards in
            let wops =
              List.init span (fun j ->
                  let shard = (start + j) mod l.shards in
                  Shard.Cmd.W_add (key_name (sample_key sm rng ~shard), 1))
            in
            Shard.Runner.Tx wops
          end
          else
            let shard = Dsim.Rng.int rng l.shards in
            let key = key_name (sample_key sm rng ~shard) in
            Shard.Runner.Single
              (Obj.Kv.gen_op ~rng ~key ~tag:(Printf.sprintf "c%d.%d" c k))))

let throughput ~acked ~virtual_time =
  if virtual_time = 0 then 0.
  else 1000. *. float_of_int acked /. float_of_int virtual_time

let latency_opt = function [] -> None | ls -> Some (Stats.summarize ls)
