(* The serving workload: a real incll_server child with its defaults
   (INCLL, 2 shards, throughput policy, 16 ms epochs, no image
   directory) on a unix socket, driven open loop over a ladder of fixed
   offered rates.

   The traffic is YCSB-A zipfian point ops over 50k keys plus ~2% SCAN
   (length 1-100) and ~1% 4-key cross-shard transactions. It is split
   over two pipelined connections, each driven by one domain: every
   mutation (the session-stamped puts and the transactions) goes over
   connection 0, so the order the server applied them is known and the
   final state can be replayed exactly; gets and scans go over
   connection 1. Scans and transactions use Wire.Client's blocking
   wrappers, so a protocol change that keeps the client API does not
   change the benchmark. *)

module C = Wire.Client
module P = Wire.Proto
module Y = Workload.Ycsb

let nkeys = 50_000
let ladder = [ 5; 10; 20; 30; 40; 50; 60 ]
let reference = 10
let slo_p99_ns = 20e6
let timeout_ns = 1_000_000_000
let setups = 3

(* Share of the window given to the reference step; the other steps
   split the rest. *)
let reference_share = 0.4

(* A step fails the SLO when the generator's median send ran this late:
   the offered rate was then not what the schedule says. (Single late
   sends behind a blocking scan or transaction are charged to latency,
   which is timed from the intended send.) *)
let max_lag_ns = 1e6

let k_put = 0
let k_get = 1
let k_scan = 2
let k_txn = 3

(* Outcome of one op. *)
let s_ok = 0
let s_busy = 1
let s_error = 2
let s_timeout = 3

(* One connection's schedule for one step, and what happened to it. *)
type sched = {
  kind : int array;
  key : string array;
  value : string array;
  len : int array;
  txn : (string * string) array array;
  at : int array;  (** intended send, ns after the step start *)
  sent : int array;
  fin : int array;
  queue : int array;  (** the reply's queue_ns *)
  status : int array;
}

let sched_of ops =
  let n = Array.length ops in
  let f g = Array.map g ops in
  {
    kind = f (fun (k, _, _, _, _, _) -> k);
    key = f (fun (_, k, _, _, _, _) -> k);
    value = f (fun (_, _, v, _, _, _) -> v);
    len = f (fun (_, _, _, l, _, _) -> l);
    txn = f (fun (_, _, _, _, t, _) -> t);
    at = f (fun (_, _, _, _, _, a) -> a);
    sent = Array.make n 0;
    fin = Array.make n 0;
    queue = Array.make n 0;
    status = Array.make n s_timeout;
  }

let value_for ~salt j =
  Masstree.Key.of_int64 (Util.Scramble.fmix64 (Int64.of_int ((salt * 1_000_003) + j + 1)))

(* The step's global stream at [rate] Kops/s for [dur] seconds, split by
   connection. Base ops come from the seeded YCSB-A zipfian stream; a
   second seeded Rng turns ~2% into scans and ~1% into 4-key
   transactions whose keys span both shards. *)
let schedule ~seed ~step ~rate ~dur ~shard_of_key =
  let n = max 1 (int_of_float (float_of_int rate *. 1e3 *. dur)) in
  let interval = 1e9 /. (float_of_int rate *. 1e3) in
  let salt = (seed * 101) + step in
  let base =
    Workload.Opstream.generate { Y.mix = Y.A; dist = Y.Zipfian; nkeys } ~seed:salt ~n
  in
  let rng = Util.Rng.create ~seed:(salt lxor 0x5ca1ab1e) in
  let rec txn_keys () =
    let ks = List.sort_uniq compare (List.init 4 (fun _ -> Y.key_of_rank (Util.Rng.int rng nkeys))) in
    let shards = List.sort_uniq compare (List.map shard_of_key ks) in
    if List.length ks = 4 && List.length shards > 1 then ks else txn_keys ()
  in
  let c0 = ref [] and c1 = ref [] in
  Array.iteri
    (fun j op ->
      let at = int_of_float (float_of_int j *. interval) in
      let r = Util.Rng.float rng in
      let key = Workload.Opstream.key_of op in
      if r < 0.02 then c1 := (k_scan, key, "", 1 + Util.Rng.int rng Y.max_scan_length, [||], at) :: !c1
      else if r < 0.03 then
        let ws = List.mapi (fun i k -> (k, value_for ~salt:(salt + 7) ((j * 4) + i))) (txn_keys ()) in
        c0 := (k_txn, key, "", 0, Array.of_list ws, at) :: !c0
      else
        match op with
        | Y.Put (k, _) -> c0 := (k_put, k, value_for ~salt j, 0, [||], at) :: !c0
        | _ -> c1 := (k_get, key, "", 0, [||], at) :: !c1)
    base;
  (sched_of (Array.of_list (List.rev !c0)), sched_of (Array.of_list (List.rev !c1)))

let classify_failure msg =
  if String.ends_with ~suffix:(P.status_name P.Busy) msg then s_busy else s_error

let status_of (r : P.reply) =
  match r.P.status with P.Ok | P.Not_found -> s_ok | P.Busy -> s_busy | _ -> s_error

(* Per-op wire tracing (traced runs): the benchmark's own calls into the
   codec and the transport, one span each. *)
type tracer = {
  spans : Pb.Spans.t;
  mutable enc_ns : int;
  mutable dec_ns : int;
  mutable bytes : int;
  mutable n : int;
}

(* Drive one connection through one step's schedule, open loop: each op
   is sent at its intended time (or as soon after as the generator can),
   replies are taken as they come, and every latency is timed from the
   intended send. *)
let drive conn s ~t0 ~sess ~tracer =
  let n = Array.length s.kind in
  let pending = Hashtbl.create 1024 in
  let finish i st (r : P.reply option) t =
    s.fin.(i) <- t;
    s.status.(i) <- st;
    match r with Some r -> s.queue.(i) <- int_of_float r.P.queue_ns | None -> ()
  in
  let take (r : P.reply) t =
    match Hashtbl.find_opt pending r.P.id with
    | Some i ->
        Hashtbl.remove pending r.P.id;
        finish i (status_of r) (Some r) t;
        (match tracer with
        | Some tr ->
            let frame = P.frame_of_reply r in
            let a = Pb.now () in
            ignore (P.reply_of_payload (String.sub frame 4 (String.length frame - 4)));
            let b = Pb.now () in
            tr.dec_ns <- tr.dec_ns + (b - a);
            tr.bytes <- tr.bytes + String.length frame;
            ignore (Pb.Spans.add tr.spans ~name:Pb.Spans.decode ~parent:(-1) ~op:i ~t0:a ~t1:b)
        | None -> ())
    | None -> ()
  in
  let drain () =
    let rec go got =
      let a = Pb.now () in
      match C.recv_opt conn with
      | Some r ->
          let b = Pb.now () in
          (match tracer with
          | Some tr -> ignore (Pb.Spans.add tr.spans ~name:Pb.Spans.recv ~parent:(-1) ~op:(-1) ~t0:a ~t1:b)
          | None -> ());
          take r b;
          go true
      | None -> got
    in
    go false
  in
  let sync i f =
    s.sent.(i) <- Pb.now ();
    (match f () with
    | () -> finish i s_ok None (Pb.now ())
    | exception Failure msg ->
        if s.kind.(i) = k_txn then (try C.txn_abort conn with Failure _ -> ());
        finish i (classify_failure msg) None (Pb.now ()));
    match tracer with
    | Some tr ->
        ignore
          (Pb.Spans.add tr.spans ~name:(if s.kind.(i) = k_scan then Pb.Spans.scan else Pb.Spans.txn)
             ~parent:(-1) ~op:i ~t0:s.sent.(i) ~t1:s.fin.(i))
    | None -> ()
  in
  let send i =
    let k = s.kind.(i) in
    if k = k_scan then sync i (fun () -> ignore (C.scan conn ~start:s.key.(i) ~n:s.len.(i)))
    else if k = k_txn then
      sync i (fun () ->
          C.txn_begin conn;
          Array.iter (fun (key, v) -> C.txn_put conn key v) s.txn.(i);
          C.txn_commit conn)
    else begin
      let op = if k = k_put then P.Put (s.key.(i), s.value.(i)) else P.Get s.key.(i) in
      let stamp = if k = k_put then Option.map (fun (sid, seq) -> incr seq; (sid, !seq)) sess else None in
      (match tracer with
      | Some tr ->
          let a = Pb.now () in
          let frame = P.frame_of_request { P.id = 0; op; sess = stamp } in
          let b = Pb.now () in
          tr.enc_ns <- tr.enc_ns + (b - a);
          tr.bytes <- tr.bytes + String.length frame;
          tr.n <- tr.n + 1;
          ignore (Pb.Spans.add tr.spans ~name:Pb.Spans.encode ~parent:(-1) ~op:i ~t0:a ~t1:b)
      | None -> ());
      let a = Pb.now () in
      let id = C.send ?sess:stamp conn op in
      s.sent.(i) <- a;
      (match tracer with
      | Some tr -> ignore (Pb.Spans.add tr.spans ~name:Pb.Spans.send ~parent:(-1) ~op:i ~t0:a ~t1:(Pb.now ()))
      | None -> ());
      Hashtbl.replace pending id i
    end
  in
  let next = ref 0 in
  let last_due = if n = 0 then t0 else t0 + s.at.(n - 1) in
  let give_up = last_due + timeout_ns in
  while !next < n || (Hashtbl.length pending > 0 && Pb.now () < give_up) do
    let t = Pb.now () in
    while !next < n && t0 + s.at.(!next) <= t do
      send !next;
      incr next;
      ignore (drain ())
    done;
    if not (drain ()) then begin
      let wake = if !next < n then t0 + s.at.(!next) else give_up in
      let wait = float_of_int (wake - Pb.now ()) /. 1e9 in
      if wait > 0.0 then
        if Hashtbl.length pending > 0 then (
          match C.recv ~deadline:(Unix.gettimeofday () +. Float.min wait 0.01) conn with
          | r -> take r (Pb.now ())
          | exception C.Timeout -> ())
        else Unix.sleepf (Float.min wait 0.01)
    end
  done;
  (* Whatever is still unanswered keeps [s_timeout]. *)
  Hashtbl.length pending

(* --- the server child ------------------------------------------------- *)

type server = { pid : int; addr : C.addr }

(* Last resort when the run fails: make sure the child is gone. *)
let reap srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] srv.pid) with Unix.Unix_error _ -> ()

let start_server ~exe ~out ~tag =
  let path = Filename.concat out (Printf.sprintf "srv%d-%d.sock" (Unix.getpid ()) tag) in
  (try Sys.remove path with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat out "server.log") [ Unix.O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let pid = Unix.create_process exe [| exe; "--listen"; "unix:" ^ path |] Unix.stdin log log in
  Unix.close log;
  let srv = { pid; addr = C.Unix_sock path } in
  let rec wait k =
    match C.connect srv.addr with
    | c -> C.close c
    | exception Unix.Unix_error _ when k > 0 ->
        Unix.sleepf 0.02;
        wait (k - 1)
  in
  (match wait 500 with () -> () | exception e -> reap srv; raise e);
  srv

(* SIGTERM, then a bounded wait for the graceful drain. *)
let stop_server srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec wait k =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when k > 0 ->
        Unix.sleepf 0.02;
        wait (k - 1)
    | 0, _ ->
        Unix.kill srv.pid Sys.sigkill;
        ignore (Unix.waitpid [] srv.pid);
        failwith "server did not drain within 10 s of SIGTERM"
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "server exited abnormally after SIGTERM"
  in
  wait 500;
  match srv.addr with C.Unix_sock p -> (try Sys.remove p with Sys_error _ -> ()) | _ -> ()

let populate conn =
  let window = 256 in
  let rec go i inflight =
    if i < nkeys && inflight < window then begin
      let k = Y.key_of_rank i in
      ignore (C.send conn (P.Put (k, Y.value_for k)));
      go (i + 1) (inflight + 1)
    end
    else if inflight > 0 then begin
      let r = C.recv conn in
      if r.P.status <> P.Ok then failwith ("populate: " ^ P.status_name r.P.status);
      go i (inflight - 1)
    end
  in
  go 0 0

(* --- server telemetry, from outside the process ------------------------ *)

type probe = {
  cpu : float;
  ctx : int;
  threads : int;
  hwm_mb : float;
  counters : (string * float) list;  (** STATS counters and histogram sums *)
}

let stat_values json =
  let section name f =
    match Obs.Json.find json name with
    | Some (Obs.Json.Obj kv) -> List.filter_map f kv
    | _ -> []
  in
  section "counters" (fun (k, v) -> Option.map (fun x -> (k, x)) (Obs.Json.to_float_opt v))
  @ section "histograms" (fun (k, v) ->
        Option.map (fun x -> (k ^ ".sum", x)) (Option.bind (Obs.Json.find v "sum") Obs.Json.to_float_opt))

let probe srv conn =
  let pid = string_of_int srv.pid in
  {
    cpu = Pb.cpu_s pid;
    ctx = Pb.ctx_switches pid;
    threads = Pb.status_field pid "Threads";
    hwm_mb = Pb.peak_rss_mb pid;
    counters = stat_values (Obs.Json.of_string (C.stats conn P.Stats_json));
  }

let delta a b name =
  let g p = Option.value ~default:0.0 (List.assoc_opt name p.counters) in
  g b -. g a

(* --- one step --------------------------------------------------------- *)

type step = {
  rate : int;
  dur : float;
  scheds : sched * sched;
  wall_s : float;
  before : probe;
  after : probe;
  minor_words : float;
  unanswered : int;
}

let all_ops st f =
  let a, b = st.scheds in
  let r = ref [] in
  List.iter (fun s -> Array.iteri (fun i k -> r := f s i k :: !r) s.kind) [ a; b ];
  List.rev !r

let count st pred = List.length (List.filter (fun x -> x) (all_ops st (fun s i _ -> pred s i)))
let ops st = count st (fun _ _ -> true)
(* Acked in time: a reply later than the timeout is a failure too. *)
let in_time s i = s.status.(i) = s_ok && s.fin.(i) - s.at.(i) <= timeout_ns
let ok st = count st in_time
let busy st = count st (fun s i -> s.status.(i) = s_busy)
let failed st = ops st - ok st

(* Latency from the intended send; a failed op counts as a miss of any
   limit (it is charged the timeout). *)
let lat ?(kinds = [ k_put; k_get; k_scan; k_txn ]) st =
  let h = Pb.Lat.create () in
  ignore
    (all_ops st (fun s i k ->
         if List.mem k kinds then
           Pb.Lat.record h (if in_time s i then s.fin.(i) - s.at.(i) else timeout_ns)));
  h

let run_step ~srv ~conns ~ctl ~rate ~dur (c0, c1) ~sess ~tracer =
  let before = probe srv ctl in
  let t0 = Pb.now () + 1_000_000 in
  let res =
    Array.map Domain.join
      (Array.mapi
         (fun i (conn, s) ->
           Domain.spawn (fun () ->
               let w0 = Gc.minor_words () in
               let left =
                 drive conn s ~t0 ~sess:(if i = 0 then sess else None)
                   ~tracer:(Option.map (fun t -> t.(i)) tracer)
               in
               (left, Gc.minor_words () -. w0)))
         [| (fst conns, c0); (snd conns, c1) |])
  in
  let t1 = Pb.now () in
  let after = probe srv ctl in
  (* [fin] and [at] are absolute and relative respectively: rebase. *)
  List.iter (fun s -> Array.iteri (fun i a -> s.at.(i) <- t0 + a) s.at) [ c0; c1 ];
  {
    rate;
    dur;
    scheds = (c0, c1);
    wall_s = float_of_int (t1 - t0) /. 1e9;
    before;
    after;
    minor_words = Array.fold_left (fun a (_, w) -> a +. w) 0.0 res;
    unanswered = Array.fold_left (fun a (l, _) -> a + l) 0 res;
  }

(* Acked-in-time ops per second of the step's wall time, which runs
   until the last reply arrived. *)
let achieved_kops st = float_of_int (ok st) /. Float.max st.dur st.wall_s /. 1e3

let lag st p =
  let h = Pb.Lat.create () in
  ignore (all_ops st (fun s i _ -> Pb.Lat.record h (s.sent.(i) - s.at.(i))));
  Pb.Lat.percentile h p

(* Median over [subwindows] equal parts of the step (by intended send)
   of the latency percentile [p], so one stall does not decide a run's
   tail. *)
let subwindows = 8

let lat_percentile ?(kinds = [ k_put; k_get; k_scan; k_txn ]) st p =
  let hs = Array.init subwindows (fun _ -> Pb.Lat.create ()) in
  let t0 = List.fold_left (fun a s -> if Array.length s.at > 0 then min a s.at.(0) else a) max_int [ fst st.scheds; snd st.scheds ] in
  let span = st.dur *. 1e9 /. float_of_int subwindows in
  ignore
    (all_ops st (fun s i k ->
         if List.mem k kinds then
           let w = min (subwindows - 1) (int_of_float (float_of_int (s.at.(i) - t0) /. span)) in
           Pb.Lat.record hs.(w) (if in_time s i then s.fin.(i) - s.at.(i) else timeout_ns)));
  Pb.median (Array.to_list (Array.map (fun h -> Pb.Lat.percentile h p) hs))

let meets_slo st =
  Pb.Lat.percentile (lat st) 0.99 <= slo_p99_ns
  && achieved_kops st >= 0.98 *. float_of_int st.rate
  && busy st = 0
  && lag st 0.5 <= max_lag_ns

(* --- correctness ------------------------------------------------------ *)

(* Replay connection 0's acked mutations, in send order, over the loaded
   state; page the whole server keyspace and compare. *)
let check_state ctl steps =
  let model = Hashtbl.create nkeys in
  for i = 0 to nkeys - 1 do
    let k = Y.key_of_rank i in
    Hashtbl.replace model k (Y.value_for k)
  done;
  List.iter
    (fun st ->
      let s = fst st.scheds in
      Array.iteri
        (fun i k ->
          if s.status.(i) = s_ok then
            if k = k_put then Hashtbl.replace model s.key.(i) s.value.(i)
            else if k = k_txn then Array.iter (fun (key, v) -> Hashtbl.replace model key v) s.txn.(i))
        s.kind)
    steps;
  let rec page start acc =
    match C.scan ctl ~start ~n:512 with
    | [] -> List.rev acc
    | pairs ->
        let last, _ = List.nth pairs (List.length pairs - 1) in
        page (last ^ "\x00") (List.rev_append pairs acc)
  in
  let remote = page "" [] in
  let expected = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []) in
  if remote <> expected then
    failwith
      (Printf.sprintf "server state differs from the replay of acked ops (server %d keys, replay %d)"
         (List.length remote) (List.length expected))

(* --- the run ---------------------------------------------------------- *)

let run ~seed ~seconds ~trace ~server ~out =
  if not (Sys.file_exists server) then failwith ("server binary not found: " ^ server);
  (* The server's key -> shard map, from the store's own routing. *)
  let local =
    Store.Sharded.create
      ~config:{ Incll.System.default_config with Incll.System.nvm = Nvm.Config.with_crash_support (Nvm.Config.with_size Nvm.Config.default (16 lsl 20)) Nvm.Config.Counting }
      Incll.System.Mt ~shards:2
  in
  let shard_of_key = Store.Sharded.shard_of_key local in
  let others = List.length ladder - 1 in
  let dur_of rate =
    if rate = reference then seconds *. reference_share
    else seconds *. (1.0 -. reference_share) /. float_of_int others
  in
  (* The ladder, plus the traced repeat of the reference step. *)
  let rates = ladder @ if trace then [ reference ] else [] in
  (* Set up several times (stream generation + server start + populate
     over the wire) and report the median; the last server is measured. *)
  let one_setup tag =
    let a = Pb.now () in
    let scheds =
      Array.of_list
        (List.mapi (fun i rate -> schedule ~seed ~step:(i + 1) ~rate ~dur:(dur_of rate) ~shard_of_key) rates)
    in
    let gen = Pb.now () - a in
    let srv = start_server ~exe:server ~out ~tag in
    match
      let c = C.connect srv.addr in
      populate c;
      c
    with
    | c -> (srv, c, scheds, float_of_int (Pb.now () - a) /. 1e9, float_of_int gen /. 1e9)
    | exception e -> reap srv; raise e
  in
  let rec setup k acc =
    let srv, c, scheds, s, g = one_setup k in
    if k = 1 then (srv, c, scheds, (s, g) :: acc)
    else begin
      C.close c;
      stop_server srv;
      setup (k - 1) ((s, g) :: acc)
    end
  in
  let srv, c0, scheds, times = setup setups [] in
  let setup_s = Pb.median (List.map fst times) and gen_s = Pb.median (List.map snd times) in
  let g0 = Gc.quick_stat () in
  let steps, traced, peak_rss, g1 =
    match
      let c1 = C.connect srv.addr and ctl = C.connect srv.addr in
      let sess =
        match C.call c0 (P.Hello 0) with
        | { P.status = P.Ok; payload = P.Value sid; _ } -> Some (int_of_string sid, ref 0)
        | _ -> failwith "HELLO refused"
      in
      let step rate sched tracer =
        run_step ~srv ~conns:(c0, c1) ~ctl ~rate ~dur:(dur_of rate) sched ~sess ~tracer
      in
      let steps = List.mapi (fun i rate -> step rate scheds.(i) None) ladder in
      let g1 = Gc.quick_stat () in
      let traced =
        if not trace then None
        else
          let tr =
            Array.init 2 (fun lane ->
                { spans = Pb.Spans.create ~lane 400_000; enc_ns = 0; dec_ns = 0; bytes = 0; n = 0 })
          in
          Some (tr, step reference scheds.(List.length ladder) (Some tr))
      in
      check_state ctl (steps @ match traced with Some (_, st) -> [ st ] | None -> []);
      let peak_rss = Pb.peak_rss_mb (string_of_int srv.pid) in
      C.close c0;
      C.close c1;
      C.close ctl;
      (steps, traced, peak_rss, g1)
    with
    | r -> stop_server srv; r
    | exception e -> reap srv; raise e
  in
  let all_steps = steps @ (match traced with Some (_, st) -> [ st ] | None -> []) in
  let unanswered = List.fold_left (fun a st -> a + st.unanswered) 0 all_steps in
  if unanswered > 0 then failwith (Printf.sprintf "%d ops never got a reply" unanswered);
  (* --- report --------------------------------------------------------- *)
  Printf.printf "  %6s %8s %8s %9s %9s %6s %6s %9s %8s %8s %s\n" "offer" "achieved" "ops" "p50_us" "p99_us" "busy"
    "fail" "lag99_us" "cpu_s" "hwm+_mb" "slo";
  List.iter
    (fun st ->
      let h = lat st in
      Printf.printf "  %6d %8.2f %8d %9.1f %9.1f %6d %6d %9.1f %8.2f %8.1f %b\n" st.rate (achieved_kops st) (ops st)
        (Pb.Lat.percentile h 0.5 /. 1e3) (Pb.Lat.percentile h 0.99 /. 1e3) (busy st) (failed st)
        (lag st 0.99 /. 1e3) (st.after.cpu -. st.before.cpu) (st.after.hwm_mb -. st.before.hwm_mb) (meets_slo st))
    steps;
  let refst = List.find (fun st -> st.rate = reference) steps in
  let max_ok = List.fold_left (fun a st -> if meets_slo st then max a st.rate else a) 0 steps in
  let total_ops = List.fold_left (fun a st -> a + ops st) 0 steps in
  let total_ok = List.fold_left (fun a st -> a + ok st) 0 steps in
  let total_wall = List.fold_left (fun a st -> a +. st.wall_s) 0.0 steps in
  let total_fail = List.fold_left (fun a st -> a + failed st) 0 steps in
  let total_busy = List.fold_left (fun a st -> a + busy st) 0 steps in
  let open Pb in
  let e2e =
    [
      m "kops_wall" (fdiv (float_of_int total_ok) total_wall /. 1e3) "Kops/s";
      m "put_p50_us" (lat_percentile ~kinds:[ k_put ] refst 0.50 /. 1e3) "us";
      m "get_p50_us" (lat_percentile ~kinds:[ k_get ] refst 0.50 /. 1e3) "us";
      m "p99_us" (lat_percentile refst 0.99 /. 1e3) "us";
      m "setup_s" setup_s "s";
      m "peak_rss_mb" peak_rss "MiB";
    ]
  in
  let point = [ k_put; k_get ] in
  let q = Lat.create () and resid = Lat.create () in
  ignore
    (all_ops refst (fun s i k ->
         if List.mem k point && in_time s i then begin
           Lat.record q s.queue.(i);
           Lat.record resid (s.fin.(i) - s.sent.(i) - s.queue.(i))
         end));
  let rops = float_of_int (ops refst) in
  let d name = delta refst.before refst.after name in
  let causes = [ "epoch_advance"; "clwb_sweep"; "extlog"; "limbo_merge"; "alloc_slow"; "txn_fence"; "net_queue" ] in
  let layer =
    [
      m "workload.gen_s" gen_s "s";
      m "max_kops_at_slo" (float_of_int max_ok) "Kops/s";
      m "fail_frac" (idiv total_fail total_ops) "ratio";
      m "gc.minor_words_per_op"
        (List.fold_left (fun a st -> a +. st.minor_words) 0.0 steps /. float_of_int total_ops)
        "words";
      m "gc.minor_collections_per_kop" (idiv ((g1.Gc.minor_collections - g0.Gc.minor_collections) * 1000) total_ops) "count";
      m "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) "count";
      m "proc.cpu_util"
        (fdiv (List.fold_left (fun a st -> a +. st.after.cpu -. st.before.cpu) 0.0 steps) total_wall)
        "ratio";
      m "wire.point_us_p99" (Lat.percentile (lat ~kinds:point refst) 0.99 /. 1e3) "us";
      m "wire.scan_us_p99" (Lat.percentile (lat ~kinds:[ k_scan ] refst) 0.99 /. 1e3) "us";
      m "wire.txn_us_p99" (Lat.percentile (lat ~kinds:[ k_txn ] refst) 0.99 /. 1e3) "us";
      m "wire.send_lag_us_p99" (lag refst 0.99 /. 1e3) "us";
      m "server.queue_us_p50" (Lat.percentile q 0.50 /. 1e3) "us";
      m "server.queue_us_p99" (Lat.percentile q 0.99 /. 1e3) "us";
      m "server.residual_us_p50" (Lat.percentile resid 0.50 /. 1e3) "us";
      m "server.cpu_us_per_op" ((refst.after.cpu -. refst.before.cpu) *. 1e6 /. rops) "us";
      m "server.ctx_switches_per_op" (float_of_int (refst.after.ctx - refst.before.ctx) /. rops) "count";
      m "server.threads" (float_of_int refst.after.threads) "count";
      m "server.extlog_appends_per_op" (d "extlog.appends" /. rops) "count";
      m "server.busy_frac" (idiv total_busy total_ops) "ratio";
    ]
    @ List.map (fun c -> m ("server.stall." ^ c ^ "_sim_ms") (d ("stall." ^ c ^ "_ns.sum") /. 1e6) "ms") causes
  in
  let traced =
    match traced with
    | None -> []
    | Some (tr, st) ->
        let kept, dropped =
          Spans.save (Filename.concat out (Printf.sprintf "spans-serve-%d.tsv" seed))
            (Array.to_list (Array.map (fun t -> t.spans) tr))
        in
        Printf.printf "  spans written: %d kept, %d beyond the buffer\n" kept dropped;
        let p50 h = Lat.percentile h 0.5 in
        let sum f = Array.fold_left (fun a t -> a + f t) 0 tr in
        let n = sum (fun t -> t.n) in
        [
          m "wire.encode_ns" (idiv (sum (fun t -> t.enc_ns)) n) "ns";
          m "wire.decode_ns" (idiv (sum (fun t -> t.dec_ns)) n) "ns";
          m "wire.bytes_per_op" (idiv (sum (fun t -> t.bytes)) n) "bytes";
          m "trace.overhead_frac" (fdiv (p50 (lat st)) (p50 (lat refst)) -. 1.0) "ratio";
        ]
  in
  (total_ops, total_fail, e2e, layer @ traced)
