(* Entry point of the repository benchmark:

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--server PATH] [--out DIR]

   Prints a human-readable report, then one JSON line holding every
   metric the workload measured ("metrics": {name: {value, unit}}).
   run.py builds this program, runs it and selects the metrics that
   BENCHMARK.json names. A failed correctness check exits with 1. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let server = ref "_build/default/bin/incll_server.exe" and out = ref "perfbench/_out" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: r -> workload := v; parse r
    | "--seed" :: v :: r -> seed := int_of_string v; parse r
    | "--seconds" :: v :: r -> seconds := float_of_string v; parse r
    | "--trace" :: v :: r -> trace := v = "1"; parse r
    | "--server" :: v :: r -> server := v; parse r
    | "--out" :: v :: r -> out := v; parse r
    | a :: _ -> prerr_endline ("perfbench: unknown argument " ^ a); exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
  let inproc shape () = Inproc.run shape ~seed:!seed ~seconds:!seconds ~trace:!trace ~out:!out in
  let run =
    match !workload with
    | "ycsb_a_large" ->
        inproc { Inproc.mix = Workload.Ycsb.A; dist = Workload.Ycsb.Uniform; nkeys = 500_000; cycles = 3 }
    | "ycsb_b_small" ->
        inproc { Inproc.mix = Workload.Ycsb.B; dist = Workload.Ycsb.Zipfian; nkeys = 50_000; cycles = 0 }
    | "serve_mixed" ->
        fun () -> Serve.run ~seed:!seed ~seconds:!seconds ~trace:!trace ~server:!server ~out:!out
    | w -> prerr_endline ("perfbench: unknown workload " ^ w); exit 2
  in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\n%!" !workload !seed !seconds !trace;
  match run () with
  | attempted, failed, e2e, layer ->
      Pb.emit ~correct:true ~attempted ~failed (e2e @ layer)
  | exception e ->
      Printf.printf "FAILED: %s\n" (Printexc.to_string e);
      Pb.emit ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
