(* Shared plumbing of the benchmark: the nanosecond clock, an
   allocation-free latency histogram, the in-memory span buffer of traced
   runs, /proc readers and the result printer. *)

(* CLOCK_MONOTONIC in integer ns; [gettimeofday] steps in whole
   microseconds, about the length of one YCSB-B op. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fdiv a b = if b = 0.0 then 0.0 else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

(* Log-linear histogram of non-negative ints: 128 sub-buckets per power
   of two, so a reported percentile is within 0.8% of the recorded
   value. Recording allocates nothing, which keeps it inside the
   measured loop without moving the GC metrics. *)
module Lat = struct
  type t = {
    counts : int array;
    mutable n : int;
    mutable max : int;
  }

  let create () = { counts = Array.make (64 * 128) 0; n = 0; max = 0 }

  let rec msb v k = if v <= 1 then k else msb (v lsr 1) (k + 1)

  let index v =
    if v < 256 then if v < 0 then 0 else v
    else
      let e = msb v 0 - 7 in
      (e lsl 7) + (v lsr e)

  (* Midpoint of bucket [i]. *)
  let value_of i =
    if i < 256 then float_of_int i
    else
      let e = (i lsr 7) - 1 in
      let lo = (i - (e lsl 7)) lsl e in
      float_of_int lo +. (float_of_int ((1 lsl e) - 1) /. 2.0)

  let record t v =
    let i = index v in
    Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + 1);
    t.n <- t.n + 1;
    if v > t.max then t.max <- v

  let merge ts =
    let r = create () in
    List.iter
      (fun t ->
        Array.iteri (fun i c -> r.counts.(i) <- r.counts.(i) + c) t.counts;
        r.n <- r.n + t.n;
        if t.max > r.max then r.max <- t.max)
      ts;
    r

  (* Value at rank ceil(p * n); 0 for an empty histogram. *)
  let percentile t p =
    if t.n = 0 then 0.0
    else begin
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int t.n))) in
      let i = ref 0 and acc = ref t.counts.(0) in
      while !acc < rank do
        incr i;
        acc := !acc + t.counts.(!i)
      done;
      Float.min (value_of !i) (float_of_int t.max)
    end
end

(* Spans of a traced run, one buffer per domain ("lane"), kept in flat
   int arrays and written out when the run ends. A span's parent is the
   index of another span of the same lane (-1 for a root); [op] is the
   per-lane op id (-1 when the span is not an op). Spans beyond the
   capacity are counted, not kept. *)
module Spans = struct
  type t = {
    lane : int;
    name : int array;
    parent : int array;
    op : int array;
    t0 : int array;
    t1 : int array;
    mutable len : int;
    mutable dropped : int;
  }

  let names =
    [| "window"; "put"; "get"; "populate"; "crash"; "recover"; "read_pass";
       "encode"; "send"; "recv"; "decode"; "scan"; "txn" |]

  let id s =
    let rec go i = if names.(i) = s then i else go (i + 1) in
    go 0

  let window = id "window"
  let put = id "put"
  let get = id "get"
  let populate = id "populate"
  let crash = id "crash"
  let recover = id "recover"
  let read_pass = id "read_pass"
  let encode = id "encode"
  let send = id "send"
  let recv = id "recv"
  let decode = id "decode"
  let scan = id "scan"
  let txn = id "txn"

  let create ~lane cap =
    let a () = Array.make cap 0 in
    { lane; name = a (); parent = a (); op = a (); t0 = a (); t1 = a ();
      len = 0; dropped = 0 }

  let add t ~name ~parent ~op ~t0 ~t1 =
    let i = t.len in
    if i >= Array.length t.name then begin
      t.dropped <- t.dropped + 1;
      -1
    end
    else begin
      Array.unsafe_set t.name i name;
      Array.unsafe_set t.parent i parent;
      Array.unsafe_set t.op i op;
      Array.unsafe_set t.t0 i t0;
      Array.unsafe_set t.t1 i t1;
      t.len <- i + 1;
      i
    end

  (* Close a span opened with [add ~t1:0]. *)
  let finish t i t1 = if i >= 0 then t.t1.(i) <- t1

  let write oc t =
    for i = 0 to t.len - 1 do
      Printf.fprintf oc "%d\t%d\t%d\t%d\t%s\t%d\t%d\n" t.lane i t.parent.(i)
        t.op.(i) names.(t.name.(i)) t.t0.(i) t.t1.(i)
    done

  let save path bufs =
    Out_channel.with_open_text path (fun oc ->
        output_string oc "lane\tid\tparent\top\tname\tstart_ns\tend_ns\n";
        List.iter (write oc) bufs);
    List.fold_left (fun (k, d) b -> (k + b.len, d + b.dropped)) (0, 0) bufs
end

(* --- /proc ------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Integer value of a "Key:   123 kB" line of /proc/<pid>/status. *)
let status_field pid key =
  let text = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let prefix = key ^ ":" in
  let lines = String.split_on_char '\n' text in
  match List.find_opt (String.starts_with ~prefix) lines with
  | None -> 0
  | Some l -> (
      let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
      match String.split_on_char ' ' (String.trim (String.map (function '\t' -> ' ' | c -> c) rest)) with
      | v :: _ -> int_of_string v
      | [] -> 0)

(* Reset this process's VmHWM to its current RSS. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let peak_rss_mb pid = float_of_int (status_field pid "VmHWM") /. 1024.0

(* utime + stime of every thread, in seconds (USER_HZ = 100 on Linux). *)
let cpu_s pid =
  let text = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  let after = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.0

(* Voluntary + involuntary context switches summed over the threads. *)
let ctx_switches pid =
  let dir = Printf.sprintf "/proc/%s/task" pid in
  Array.fold_left
    (fun acc tid ->
      let p = pid ^ "/task/" ^ tid in
      try acc + status_field p "voluntary_ctxt_switches" + status_field p "nonvoluntary_ctxt_switches"
      with Sys_error _ -> acc)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

(* --- result --------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

(* Human-readable lines, then the one-line JSON result run.py reads. *)
let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-34s %16.6f %s\n" x.name x.value x.unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           let v = if Float.is_finite x.value then x.value else 0.0 in
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_float v) x.unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed body
