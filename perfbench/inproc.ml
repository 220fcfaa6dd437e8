(* The in-process workloads: a durable INCLL store of 2 shards driven in
   a closed loop through the public API (Store.Sharded, Workload.Opstream,
   Incll.System for recovery statistics).

   Precise regions (the only mode that can crash, and what the server
   runs), the throughput policy and 8 ms simulated epochs, so one run
   spans dozens of checkpoints.

   One domain drives both shards, in global stream order. With one domain
   per shard, runs on a 2-vCPU machine split into a fast and a slow mode
   (throughput 1.7 vs 2.6 Mops/s on YCSB-B, an interquartile spread of 26%
   over ten seeds); with one domain the spread is 2%. The simulated clock
   still treats the shards as parallel threads. *)

module S = Store.Sharded
module Sys_ = Incll.System
module O = Workload.Opstream
module Y = Workload.Ycsb
module Oracle = Chaos_runner.Oracle

type shape = {
  mix : Y.mix;
  dist : Y.dist;
  nkeys : int;
  cycles : int;  (** crash -> recover cycles after the measured window *)
}

let shards = 2

(* Ops pre-generated per run; the loop cycles through them, so memory
   stays bounded however long the window is. *)
let stream_ops = 600_000

(* The first [quota_ops] ops are the deterministic prefix: the
   simulated-clock metrics are read when they are done, so they repeat
   bit for bit for one seed. *)
let quota_ops = 300_000
let cycle_ops = 40_000
let setups = 3
let span_cap = 800_000

(* Windows are cut into slices of 2^28 ns (~268 ms); the end-to-end
   numbers are medians over the whole slices, so a burst of interference
   shorter than half the window does not move them. The last slice takes
   any overflow of a window longer than [max_slices] slices. *)
let slice_shift = 28
let max_slices = 64

let config nkeys =
  let per_shard = (nkeys / shards) + 1 in
  let size = ((per_shard * 256) + (16 lsl 20) + 4095) / 4096 * 4096 in
  let nvm =
    Nvm.Config.with_policy
      {
        Nvm.Config.default with
        Nvm.Config.size_bytes = size;
        extlog_bytes = 8 lsl 20;
        crash_support = Nvm.Config.Precise;
      }
      Nvm.Config.Throughput
  in
  { Sys_.default_config with Sys_.nvm; epoch_len_ns = 8e6 }

(* A distinct 8-byte value per put, so a lost or reordered write reads
   back as a wrong value (the stream's own values repeat the loaded
   ones). *)
let value_for ~salt j =
  Masstree.Key.of_int64
    (Util.Scramble.fmix64 (Int64.of_int ((salt * 1_000_003) + j + 1)))

let stream shape ~seed ~salt ~n =
  O.generate { Y.mix = shape.mix; dist = shape.dist; nkeys = shape.nkeys } ~seed ~n
  |> Array.mapi (fun j -> function
       | Y.Put (k, _) -> Y.Put (k, value_for ~salt j)
       | op -> op)

type prepared = {
  store : S.t;
  enc : O.encoded;
  gen_s : float;
  populate_s : float;
}

(* One set-up: stream generation, then a fresh store populated with the
   loaded values and checkpointed. *)
let prepare shape ~seed ~spans =
  let t0 = Pb.now () in
  let enc = O.encode (stream shape ~seed ~salt:seed ~n:stream_ops) in
  let t1 = Pb.now () in
  let store = S.create ~config:(config shape.nkeys) Sys_.Incll ~shards in
  Array.iter (fun key -> S.put store ~key ~value:(Y.value_for key)) (Y.load_keys ~nkeys:shape.nkeys);
  S.advance_epochs store;
  let t2 = Pb.now () in
  (match spans with
  | Some sp -> ignore (Pb.Spans.add sp ~name:Pb.Spans.populate ~parent:(-1) ~op:(-1) ~t0:t1 ~t1:t2)
  | None -> ());
  { store; enc; gen_s = float_of_int (t1 - t0) /. 1e9; populate_s = float_of_int (t2 - t1) /. 1e9 }

(* What one window measured. The per-slice histograms are filled in
   untraced windows only. *)
type window = {
  put : Pb.Lat.t;
  get : Pb.Lat.t;
  slice_put : Pb.Lat.t array;  (** put latencies per slice *)
  slice_get : Pb.Lat.t array;  (** get latencies per slice *)
  class_ns : int array;  (** boundary, extlog, fallback, plain *)
  class_n : int array;
  ops : int;
  wall_s : float;
  full_slices : int;  (** slices that lie wholly inside the window *)
  minor_words : float;
  stats0 : Nvm.Stats.t array;
  statsq : Nvm.Stats.t array;  (** at the end of the quota prefix *)
  reg0 : Obs.Registry.t array;
  regq : Obs.Registry.t array;
  cpu_s : float;
  minor_gcs : int;
  major_gcs : int;
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Closed loop over the stream, from op [start], until [seconds] have
   passed and [quota] ops are done. With [spans], every op is a span and
   its wall time goes into one of four classes, from the shard counters
   it moved: crossed an epoch boundary, appended to the external log,
   took the InCLL fallback, or plain. Traced op spans are back to back
   (each starts where the previous one ended), so each carries the loop's
   own bookkeeping for it: one clock read here costs ~40 ns, which two
   reads per op would leave outside every span, 8% of a 0.5 us YCSB-B
   op. The untraced window times each call alone. *)
let measure p ~start ~quota ~seconds ~spans =
  let store = p.store and enc = p.enc in
  let n = O.length enc in
  let tags = enc.O.tags and keys = enc.O.keys and values = enc.O.values in
  let regions = Array.init shards (fun i -> Sys_.region (S.shard store i)) in
  let stats () = Array.map (fun r -> Nvm.Stats.snapshot (Nvm.Region.stats r)) regions in
  let regs () = Array.map (fun r -> Obs.Registry.snapshot (Nvm.Region.metrics r)) regions in
  let counter name = Array.map (fun r -> Obs.Registry.counter (Nvm.Region.metrics r) name) regions in
  let c_epoch = counter "epoch.advances" and c_ext = counter "extlog.appends" and c_fb = counter "incll_fallback" in
  let sum c = !(c.(0)) + !(c.(1)) in
  let put = Pb.Lat.create () and get = Pb.Lat.create () in
  let slice_put = Array.init max_slices (fun _ -> Pb.Lat.create ()) in
  let slice_get = Array.init max_slices (fun _ -> Pb.Lat.create ()) in
  let class_ns = Array.make 4 0 and class_n = Array.make 4 0 in
  let stats0 = stats () and reg0 = regs () in
  let statsq = ref [||] and regq = ref [||] in
  let g0 = Gc.quick_stat () and c0 = cpu () and w0 = Gc.minor_words () in
  let origin = Pb.now () in
  let deadline = origin + int_of_float (seconds *. 1e9) in
  let root =
    match spans with
    | Some sp -> Pb.Spans.add sp ~name:Pb.Spans.window ~parent:(-1) ~op:(-1) ~t0:origin ~t1:0
    | None -> -1
  in
  let i = ref (start mod n) and count = ref 0 and prev = ref origin in
  let continue = ref true in
  while !continue do
    let j = !i in
    let key = Array.unsafe_get keys j in
    let is_put = Bytes.unsafe_get tags j = '\000' in
    let t1 =
      match spans with
      | None ->
          let t0 = Pb.now () in
          if is_put then S.put store ~key ~value:(Array.unsafe_get values j) else ignore (S.get store ~key);
          let t1 = Pb.now () in
          let b = min (max_slices - 1) ((t1 - origin) lsr slice_shift) in
          if is_put then begin
            Pb.Lat.record put (t1 - t0);
            Pb.Lat.record (Array.unsafe_get slice_put b) (t1 - t0)
          end
          else begin
            Pb.Lat.record get (t1 - t0);
            Pb.Lat.record (Array.unsafe_get slice_get b) (t1 - t0)
          end;
          t1
      | Some sp ->
          let e0 = sum c_epoch and x0 = sum c_ext and f0 = sum c_fb in
          let t0 = !prev in
          if is_put then S.put store ~key ~value:(Array.unsafe_get values j) else ignore (S.get store ~key);
          let t1 = Pb.now () in
          prev := t1;
          let c =
            if sum c_epoch <> e0 then 0
            else if sum c_ext <> x0 then 1
            else if sum c_fb <> f0 then 2
            else 3
          in
          class_ns.(c) <- class_ns.(c) + (t1 - t0);
          class_n.(c) <- class_n.(c) + 1;
          ignore
            (Pb.Spans.add sp ~name:(if is_put then Pb.Spans.put else Pb.Spans.get) ~parent:root
               ~op:(start + !count) ~t0 ~t1);
          t1
    in
    incr count;
    i := if j + 1 = n then 0 else j + 1;
    if !count = quota then begin
      statsq := stats ();
      regq := regs ()
    end;
    if t1 >= deadline && !count >= quota then continue := false
  done;
  let t_end = Pb.now () in
  (match spans with Some sp -> Pb.Spans.finish sp root t_end | None -> ());
  let g1 = Gc.quick_stat () in
  {
    put;
    get;
    slice_put;
    slice_get;
    class_ns;
    class_n;
    ops = !count;
    wall_s = float_of_int (t_end - origin) /. 1e9;
    full_slices = min (max_slices - 1) ((t_end - origin) lsr slice_shift);
    minor_words = Gc.minor_words () -. w0;
    stats0;
    statsq = !statsq;
    reg0;
    regq = !regq;
    cpu_s = cpu () -. c0;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
  }

let kops w = Pb.fdiv (float_of_int w.ops) w.wall_s /. 1e3

(* Median over the window's whole slices of the latency percentile [p]
   of the ops [pick] selects from each slice. *)
let slice_percentile w pick p =
  Pb.median (List.init w.full_slices (fun b -> Pb.Lat.percentile (Pb.Lat.merge (pick w b)) p))

let puts w b = [ w.slice_put.(b) ]
let gets w b = [ w.slice_get.(b) ]
let all w b = [ w.slice_put.(b); w.slice_get.(b) ]

(* Throughput per whole slice of the window. *)
let slice_kops w =
  List.init w.full_slices (fun b ->
      float_of_int (w.slice_put.(b).Pb.Lat.n + w.slice_get.(b).Pb.Lat.n)
      /. (float_of_int (1 lsl slice_shift) /. 1e9) /. 1e3)

(* The state the stream leaves behind: the loaded values, then the
   [executed] ops in order. *)
let replay_model shape p ~executed =
  let model = Hashtbl.create shape.nkeys in
  Array.iter (fun k -> Hashtbl.replace model k (Y.value_for k)) (Y.load_keys ~nkeys:shape.nkeys);
  let n = O.length p.enc in
  for c = 0 to executed - 1 do
    let j = c mod n in
    if Bytes.get p.enc.O.tags j = '\000' then Hashtbl.replace model p.enc.O.keys.(j) p.enc.O.values.(j)
  done;
  model

let check_model store model =
  let bad = ref None in
  Hashtbl.iter
    (fun k v ->
      if !bad = None && S.get store ~key:k <> Some v then
        bad := Some (Printf.sprintf "key %S does not read back its last written value" k))
    model;
  match !bad with
  | Some e -> Error e
  | None ->
      let c = S.cardinal store in
      if c <> Hashtbl.length model then
        Error (Printf.sprintf "store holds %d keys, replay holds %d" c (Hashtbl.length model))
      else Ok ()

let persisted_epoch region =
  Int64.to_int (Nvm.Region.read_i64 region Nvm.Layout.off_durable_epoch)

type cycle = {
  crash_ms : float;
  recover_ms : float;
  phases : (string * float) list;
  replayed : int;
  lazy_ns_per_key : float;
}

(* One crash -> recover cycle, checked against an oracle seeded with the
   state before the cycle: checkpoint, run [cycle_ops] sequential
   YCSB-A ops recorded by the oracle, crash with a seeded PCSO prefix per
   dirty line, recover, and compare every key with the oracle's model of
   each shard's last checkpoint. Returns the model after the cycle. *)
let cycle shape store model ~seed ~index ~spans =
  let oracle = Oracle.create () in
  S.advance_epochs store;
  Hashtbl.iter
    (fun k v -> Oracle.record oracle ~shard:(S.shard_of_key store k) (Oracle.Put { key = k; value = v }))
    model;
  let sync () =
    for s = 0 to shards - 1 do
      match Sys_.epoch_manager (S.shard store s) with
      | Some em -> Oracle.mark_epoch oracle ~shard:s ~epoch:(Epoch.Manager.current em)
      | None -> ()
    done
  in
  sync ();
  let salt = (seed * 7919) + index + 1 in
  let ops =
    stream { shape with mix = Y.A } ~seed:salt ~salt ~n:cycle_ops
  in
  Array.iter
    (fun op ->
      sync ();
      (match op with
      | Y.Put (key, value) ->
          Oracle.record oracle ~shard:(S.shard_of_key store key) (Oracle.Put { key; value });
          S.put store ~key ~value
      | Y.Get key -> ignore (S.get store ~key)
      | Y.Scan (start, n) -> ignore (S.scan store ~start ~n));
      sync ())
    ops;
  let span name t0 t1 =
    match spans with
    | Some sp -> ignore (Pb.Spans.add sp ~name ~parent:(-1) ~op:index ~t0 ~t1)
    | None -> ()
  in
  let t0 = Pb.now () in
  S.crash store (Util.Rng.create ~seed:salt);
  let t1 = Pb.now () in
  span Pb.Spans.crash t0 t1;
  let boundary =
    Array.init shards (fun s ->
        Oracle.boundary_at oracle ~shard:s
          ~crashed_epoch:(persisted_epoch (Sys_.region (S.shard store s))))
  in
  let t2 = Pb.now () in
  let phases = S.recover store in
  let t3 = Pb.now () in
  span Pb.Spans.recover t2 t3;
  let replayed =
    List.fold_left ( + ) 0
      (List.init shards (fun s ->
           match Sys_.last_recover_stats (S.shard store s) with
           | Some r -> r.Sys_.replayed_entries
           | None -> 0))
  in
  Oracle.compact oracle ~boundary:(fun s -> boundary.(s)) ~committed:(fun _ -> false);
  let after = Oracle.replay oracle in
  (* Traced runs time two full read passes: the first pays the lazy leaf
     repair that recovery deferred, the second does not. *)
  let lazy_ns_per_key =
    match spans with
    | None -> 0.0
    | Some _ ->
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) after [] in
        let pass () =
          let a = Pb.now () in
          List.iter (fun key -> ignore (S.get store ~key)) keys;
          let b = Pb.now () in
          span Pb.Spans.read_pass a b;
          b - a
        in
        let first = pass () in
        let second = pass () in
        Pb.idiv (first - second) (List.length keys)
  in
  (match Oracle.check oracle ~get:(fun key -> S.get store ~key) ~cardinal:(S.cardinal store) with
  | Ok _ -> ()
  | Error e -> failwith (Printf.sprintf "recovery cycle %d: %s" index e));
  ( {
      crash_ms = float_of_int (t1 - t0) /. 1e6;
      recover_ms = float_of_int (t3 - t2) /. 1e6;
      phases;
      replayed;
      lazy_ns_per_key;
    },
    after )

(* Counter / stall-ledger deltas summed over shards, between the window
   start and the end of the quota prefix. *)
let quota_counter w name =
  let v regs = Array.fold_left (fun a r -> a + Obs.Registry.counter_value r name) 0 regs in
  v w.regq - v w.reg0

let quota_hist f w name =
  let v regs =
    Array.fold_left
      (fun a r -> match Obs.Registry.find_histogram r name with Some h -> a +. f h | None -> a)
      0.0 regs
  in
  v w.regq -. v w.reg0

let quota_hist_sum = quota_hist Obs.Histogram.sum

let quota_hist_count = quota_hist (fun h -> float_of_int (Obs.Histogram.count h))

let quota_stats w = Array.map2 (fun after before -> Nvm.Stats.diff ~after ~before) w.statsq w.stats0

let run shape ~seed ~seconds ~trace ~out =
  let spans = if trace then Some (Pb.Spans.create ~lane:0 span_cap) else None in
  (* Set up several times and report the median, so set-up work shows
     steadily; the last store is the one measured. *)
  let rec setup k times =
    Gc.compact ();
    (* The peak RSS reported is that of the measured store's set-up and
       run, not of the earlier, discarded set-ups. *)
    if k = 1 then Pb.reset_peak_rss ();
    let p = prepare shape ~seed ~spans:(if k = 1 then spans else None) in
    let times = (p.gen_s, p.populate_s) :: times in
    if k = 1 then (p, times) else setup (k - 1) times
  in
  let p, times = setup setups [] in
  let setup_s = Pb.median (List.map (fun (g, l) -> g +. l) times) in
  let gen_s = Pb.median (List.map fst times) in
  let populate_s = Pb.median (List.map snd times) in
  (* Untraced window (the end-to-end numbers); a traced run measures a
     second, traced window on the same store and reports its overhead. *)
  let base_seconds = if trace then seconds /. 2.0 else seconds in
  let w = measure p ~start:0 ~quota:quota_ops ~seconds:base_seconds ~spans:None in
  let tw = if trace then Some (measure p ~start:w.ops ~quota:0 ~seconds:base_seconds ~spans) else None in
  let executed = w.ops + match tw with Some tw -> tw.ops | None -> 0 in
  let model = replay_model shape p ~executed in
  let cycles, model =
    let rec go i model acc =
      if i >= shape.cycles then (List.rev acc, model)
      else
        let c, model = cycle shape p.store model ~seed ~index:i ~spans in
        go (i + 1) model (c :: acc)
    in
    go 0 model []
  in
  (* With crash cycles the first cycle's oracle, seeded from the replay,
     has already checked the stream's state. *)
  if shape.cycles = 0 then (match check_model p.store model with Ok () -> () | Error e -> failwith e);
  let peak_rss = Pb.peak_rss_mb "self" in
  let attempted = executed + (shape.cycles * cycle_ops) in
  (* --- metrics ------------------------------------------------------- *)
  let st = quota_stats w in
  let sumf f = Array.fold_left (fun a s -> a + f s) 0 st in
  let sims = Array.map Nvm.Stats.sim_ns st in
  let sim_total = Array.fold_left ( +. ) 0.0 sims in
  let sim_max = Array.fold_left Float.max 0.0 sims in
  let qops = float_of_int quota_ops in
  let per_op n = float_of_int n /. qops in
  let per_kop n = float_of_int n *. 1e3 /. qops in
  let recover_sim c = List.fold_left (fun a (_, ns) -> a +. ns) 0.0 c.phases /. 1e6 in
  let med f = Pb.median (List.map f cycles) in
  let phase name c = match List.assoc_opt ("recover." ^ name) c.phases with Some ns -> ns /. 1e6 | None -> 0.0 in
  let hit = quota_counter w "incll_hit" and fb = quota_counter w "incll_fallback" in
  let open Pb in
  let e2e =
    [
      m "kops_wall" (Pb.median (slice_kops w)) "Kops/s";
      m "put_p50_us" (slice_percentile w puts 0.50 /. 1e3) "us";
      m "get_p50_us" (slice_percentile w gets 0.50 /. 1e3) "us";
      m "p99_us" (slice_percentile w all 0.99 /. 1e3) "us";
      m "setup_s" setup_s "s";
      m "peak_rss_mb" peak_rss "MiB";
      m "mops_sim" (qops /. sim_max *. 1e3) "Mops/s";
    ]
    @ (if cycles = [] then []
       else [ m "recover_ms" (med (fun c -> c.recover_ms)) "ms";
              m "recover_sim_ms" (med recover_sim) "ms" ])
  in
  let layer =
    [
      m "workload.gen_s" gen_s "s";
      m "core.populate_ns_per_key" (populate_s *. 1e9 /. float_of_int shape.nkeys) "ns";
      m "nvm.reads_per_op" (per_op (sumf (fun s -> s.Nvm.Stats.reads))) "count";
      m "nvm.writes_per_op" (per_op (sumf (fun s -> s.Nvm.Stats.writes))) "count";
      m "nvm.clwb_per_op" (per_op (sumf (fun s -> s.Nvm.Stats.clwb))) "count";
      m "nvm.sfence_per_op" (per_op (sumf (fun s -> s.Nvm.Stats.sfence))) "count";
      m "nvm.wbinvd_lines_per_kop" (per_kop (sumf (fun s -> s.Nvm.Stats.wbinvd_lines))) "count";
      m "nvm.evictions_per_kop" (per_kop (sumf (fun s -> s.Nvm.Stats.evictions))) "count";
      m "nvm.sim_ns_per_op" (sim_total /. qops) "ns";
      m "epoch.advances" (float_of_int (quota_counter w "epoch.advances")) "count";
      m "stall.epoch_advance_sim_ms" (quota_hist_sum w "stall.epoch_advance_ns" /. 1e6) "ms";
      m "extlog.appends_per_kop" (per_kop (quota_counter w "extlog.appends")) "count";
      m "stall.extlog_sim_ms" (quota_hist_sum w "stall.extlog_ns" /. 1e6) "ms";
      m "incll.hit_ratio" (idiv hit (hit + fb)) "ratio";
      m "incll.first_touch_per_kop" (per_kop (quota_counter w "incll_first_touch")) "count";
      m "stall.alloc_slow_count" (quota_hist_count w "stall.alloc_slow_ns") "count";
      m "stall.alloc_slow_sim_ms" (quota_hist_sum w "stall.alloc_slow_ns" /. 1e6) "ms";
      m "gc.minor_words_per_op" (w.minor_words /. float_of_int w.ops) "words";
      m "gc.minor_collections_per_kop" (idiv (w.minor_gcs * 1000) w.ops) "count";
      m "gc.major_collections" (float_of_int w.major_gcs) "count";
      m "proc.cpu_util" (fdiv w.cpu_s w.wall_s) "ratio";
      m "fail_frac" 0.0 "ratio";
    ]
    @ (if cycles = [] then []
       else
         [
           m "recover.epoch_open_sim_ms" (med (phase "epoch_open")) "ms";
           m "recover.extlog_replay_sim_ms" (med (phase "extlog_replay")) "ms";
           m "recover.alloc_chains_sim_ms" (med (phase "alloc_chains")) "ms";
           m "recover.image_scan_sim_ms" (med (phase "image_scan")) "ms";
           m "recover.txn_resolve_sim_ms" (med (phase "txn_resolve")) "ms";
           m "recover.checkpoint_sim_ms" (med (phase "checkpoint")) "ms";
           m "recover.replayed_entries" (med (fun c -> float_of_int c.replayed)) "count";
           m "recover.crash_ms" (med (fun c -> c.crash_ms)) "ms";
         ])
  in
  let traced =
    match (tw, spans) with
    | Some tw, Some sp ->
        let cls k = tw.class_ns.(k) and cnt k = tw.class_n.(k) in
        let share k = fdiv (float_of_int (cls k)) (tw.wall_s *. 1e9) in
        let tl = w.put and gl = w.get in
        let kept, dropped =
          Spans.save (Filename.concat out (Printf.sprintf "spans-%s-%d.tsv" (Y.mix_name shape.mix) seed)) [ sp ]
        in
        Printf.printf "  spans written: %d kept, %d beyond the buffer\n" kept dropped;
        [
          m "core.put_ns_p50" (Lat.percentile tl 0.50) "ns";
          m "core.put_ns_p99" (Lat.percentile tl 0.99) "ns";
          m "core.get_ns_p50" (Lat.percentile gl 0.50) "ns";
          m "core.get_ns_p99" (Lat.percentile gl 0.99) "ns";
          m "epoch.boundary_op_ms_mean" (idiv (cls 0) (cnt 0) /. 1e6) "ms";
          m "epoch.boundary_wall_share" (share 0) "ratio";
          m "extlog.append_op_ns_mean" (idiv (cls 1) (cnt 1)) "ns";
          m "extlog.append_wall_share" (share 1) "ratio";
          m "incll.fallback_wall_share" (share 2) "ratio";
          m "op.plain_wall_share" (share 3) "ratio";
          m "trace.unattributed_share" (1.0 -. share 0 -. share 1 -. share 2 -. share 3) "ratio";
          m "trace.kops_wall_traced" (kops tw) "Kops/s";
          m "trace.overhead_frac" (1.0 -. fdiv (kops tw) (kops w)) "ratio";
        ]
        @ (if cycles = [] then []
           else [ m "recover.lazy_read_ns_per_key" (med (fun c -> c.lazy_ns_per_key)) "ns" ])
    | _ -> []
  in
  (attempted, 0, e2e, layer @ traced)
