(* perfbench — the repository benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1 [--spans FILE]

   One process, at most two domains, one workload per invocation, driven
   only through the library's public entry points.  Every input is made
   here from the seed with [Runtime.Xoshiro]; every unit's output is
   checked after its clock has stopped.

   A run sets the workload up [setups] times (each set-up ends with the
   first checked result, and is excluded from the steady-state samples),
   then repeats units for [S] seconds.  The clock of each set-up and each
   unit runs on through a full major collection after its calls: it pays
   for collecting all the garbage it made, and the next one starts from
   the same heap.  The last line of stdout is one JSON object
   {correct, attempted, failed, metrics}:

   - [--trace 0]: the end-to-end metrics, observability off;
   - [--trace 1]: the per-layer metrics.  Every other unit runs with
     [Obs.enable ()] and spans recorded around every public call and probe
     (name, start, end, parent, unit id); [trace.overhead_frac] compares
     traced with untraced units.  Spans stay in memory and go to
     [--spans] at exit. *)

open Machine

let domains = 2

(* ------------------------------------------------------------ statistics *)

let now_ns = Obs.Clock.now_ns
let since t0 = Obs.Clock.ns_to_s (Obs.Clock.ns_since t0)

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* Linear interpolation between order statistics. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ----------------------------------------------------------------- spans *)

type span = {
  sname : string;
  unit_id : int;  (** -1 for set-up and probes *)
  parent : int;  (** index of the enclosing span, -1 at top level *)
  start : float;  (** seconds since process start *)
  mutable stop : float;
}

let t_origin = now_ns ()
let clock () = since t_origin
let tracing = ref false
let recorded : span array ref = ref [||]
let n_spans = ref 0
let open_spans : int list ref = ref []

let push s =
  if !n_spans = Array.length !recorded then
    recorded := Array.append !recorded (Array.make (max 64 !n_spans) s);
  !recorded.(!n_spans) <- s;
  incr n_spans;
  !n_spans - 1

let span ?(unit_id = -1) name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let id = push { sname = name; unit_id; parent; start = clock (); stop = Float.nan } in
    open_spans := id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        !recorded.(id).stop <- clock ();
        open_spans := List.tl !open_spans)
      f
  end

(* A child of the open span whose duration a layer measured itself
   ([Multicore.stats.wall], the [Obs] kernel-span total), ending now. *)
let measured ?(unit_id = -1) name secs =
  if !tracing then begin
    let parent = match !open_spans with p :: _ -> p | [] -> -1 in
    let t = clock () in
    ignore (push { sname = name; unit_id; parent; start = t -. secs; stop = t })
  end

let spans () = Array.sub !recorded 0 !n_spans

(* Self time per span name over unit spans: duration minus the time its
   child spans cover. *)
let self_times () =
  let all = spans () in
  let child = Array.make (Array.length all) 0.0 in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start))
    all;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if s.unit_id >= 0 then begin
        let self = s.stop -. s.start -. child.(i) in
        Hashtbl.replace tbl s.sname (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.sname))
      end)
    all;
  tbl

let write_spans path =
  let json =
    Obs.Json.List
      (Array.to_list
         (Array.map
            (fun s ->
              Obs.Json.Obj
                [
                  ("name", Obs.Json.String s.sname);
                  ("unit", Obs.Json.Int s.unit_id);
                  ("parent", Obs.Json.Int s.parent);
                  ("start_s", Obs.Json.Float s.start);
                  ("end_s", Obs.Json.Float s.stop);
                ])
            (spans ())))
  in
  Obs.Json.to_file ~pretty:false path json

(* Observability totals the per-layer metrics difference around a unit:
   fabric parks, fabric-domain minor words, and the [exec.*]/[flat_exec.*]
   kernel spans (ns) and calls. *)
let obs_totals () =
  let parks = ref 0 and fabric_words = ref 0 and kernel_ns = ref 0 and kernel_calls = ref 0 in
  let is_kernel name =
    String.starts_with ~prefix:"exec." name || String.starts_with ~prefix:"flat_exec." name
  in
  List.iter
    (fun (name, v) ->
      match v with
      | Obs.Metrics.Counter_v c ->
          if name = "mc.parks" then parks := c
          else if name = "mc.minor_words" then fabric_words := c
          else if is_kernel name && String.ends_with ~suffix:".calls" name then
            kernel_calls := !kernel_calls + c
      | Obs.Metrics.Histogram_v h -> if is_kernel name then kernel_ns := !kernel_ns + h.Obs.Metrics.hs_sum)
    (Obs.snapshot ());
  (!parks, !fabric_words, !kernel_ns, !kernel_calls)

let kernel_ns () =
  let _, _, ns, _ = obs_totals () in
  ns

(* ------------------------------------------------------------- workloads *)

(* One steady-state unit.  [secs] times only the library call(s); [ok] is
   decided after the clock stopped. *)
type unit_result = {
  secs : float;
  ok : bool;
  items : float;  (** work completed by the unit *)
  work_secs : float;  (** the time [items] took (= [secs] except for the service) *)
  job_lat : (float * float) option;  (** service: this unit's job latency p50, p95 *)
  layers : (string * float) list;  (** per-unit layer numbers *)
}

type workload = {
  setup : unit -> float * bool;
      (** one cold set-up through the first checked result: seconds, ok *)
  unit_ : int -> unit_result;
  once : unit -> (string * float) list;
      (** layer numbers taken once per run: set-up figures, workload probes *)
  teardown : unit -> unit;
}

let nothing () = []

(* An SPMD library call inside a unit span, with the engine's own wall
   time recorded as its child: the call span's self time is then the
   time spent outside [Multicore.run]. *)
let spmd_unit ~unit_id name call =
  span ~unit_id "unit" (fun () ->
      span ~unit_id name (fun () ->
          let ((_, (st : Multicore.stats)) as r), secs = timed call in
          measured ~unit_id "machine.multicore.run" st.Multicore.wall;
          (r, secs)))

let spmd_layers (st : Multicore.stats) secs =
  [
    ("program.wall_s", st.Multicore.wall);
    ("program.outside_s", secs -. st.Multicore.wall);
    ("fabric.msgs", float_of_int st.Multicore.total_msgs);
    ("fabric.recvs", float_of_int st.Multicore.total_recvs);
    ("fabric.sleeps", float_of_int st.Multicore.sleeps);
  ]

let floats_bitwise_equal (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* hqs — the paper's own workload (Table 1, Figure 3): hyperquicksort of
   2^20 keys on 2 ranks, one fresh [sort_multicore] call per unit.
   Dominated by the local quicksort kernel; a handful of bulk messages. *)
let hqs ~seed =
  let n = 1 lsl 20 and procs = 2 in
  let rng = Runtime.Xoshiro.of_seed seed in
  let data = Runtime.Xoshiro.int_array rng ~len:n ~bound:(1 lsl 30) in
  let expected = Array.copy data in
  Array.sort compare expected;
  let call () = Algorithms.Hyperquicksort.sort_multicore ~domains ~procs data in
  let unit_ unit_id =
    let (out, st), secs = spmd_unit ~unit_id "algorithms.hyperquicksort.sort_multicore" call in
    {
      secs;
      ok = out = expected;
      items = float_of_int n;
      work_secs = secs;
      job_lat = None;
      layers = spmd_layers st secs;
    }
  in
  let once () =
    let half = Array.sub data 0 (n / procs) in
    let xs =
      List.init 5 (fun _ ->
          snd
            (timed (fun () ->
                 span "probe.algorithms.seq_kernels.quicksort" (fun () ->
                     Algorithms.Seq_kernels.quicksort half))))
    in
    [ ("hqs.local_sort_s", median xs) ]
  in
  {
    setup =
      (fun () ->
        let (out, _), secs = timed call in
        (secs, out = expected));
    unit_;
    once;
    teardown = ignore;
  }

(* pipeline — the planner and the host tier: parse and optimise once, then
   evaluate on a pool of 1 worker domain plus the caller, per unit.
   Integer-valued inputs keep every partial sum exact, so the pool's
   two-phase scan must match the sequential reference bitwise. *)
let pipeline ~seed =
  let n = 1_000_000 in
  let source = "scan fadd . map fhalve . map fdouble . map fincr" in
  let rng = Runtime.Xoshiro.of_seed seed in
  let input =
    Transform.Value.Arr
      (Array.init n (fun _ -> Transform.Value.Float (float_of_int (Runtime.Xoshiro.int rng 1024))))
  in
  let floats v = Array.map Transform.Value.as_float (Transform.Value.as_arr v) in
  let expected = floats (Transform.Ast.eval (Transform.Parser.parse_exn source) input) in
  let ok v = try floats_bitwise_equal (floats v) expected with Transform.Value.Type_error _ -> false in
  let state = ref None in
  let teardown () =
    Option.iter (fun (pool, _, _, _) -> Runtime.Pool.teardown pool) !state;
    state := None
  in
  let plan_s = ref [] and plan = ref None in
  let eval unit_id =
    let _, exec, fx, (rep : Transform.Optimizer.report) = Option.get !state in
    span ~unit_id "transform.host_exec.eval" (fun () ->
        let k0 = if !tracing then kernel_ns () else 0 in
        let out = Transform.Host_exec.eval ~exec ~fx rep.Transform.Optimizer.output input in
        if !tracing then measured ~unit_id "kernel" (Obs.Clock.ns_to_s (kernel_ns () - k0));
        out)
  in
  let setup () =
    teardown ();
    let (), secs =
      timed (fun () ->
          let pool =
            span "runtime.pool.create" (fun () -> Runtime.Pool.create ~num_domains:(domains - 1) ())
          in
          let expr = span "transform.parser.parse_exn" (fun () -> Transform.Parser.parse_exn source) in
          let rep, opt_s =
            timed (fun () ->
                span "transform.optimizer.optimize" (fun () ->
                    Transform.Optimizer.optimize ~flat:true ~procs:domains ~n
                      ~strategy:Transform.Optimizer.default_beam expr))
          in
          plan_s := opt_s :: !plan_s;
          plan := Some rep;
          state := Some (pool, Scl.Exec.on_pool pool, Scl.Flat_exec.on_pool pool, rep))
    in
    let out, eval_s = timed (fun () -> eval (-1)) in
    (secs +. eval_s, ok out)
  in
  let unit_ unit_id =
    let pool, _, _, _ = Option.get !state in
    let p0 = Runtime.Pool.stats pool in
    let out, secs = span ~unit_id "unit" (fun () -> timed (fun () -> eval unit_id)) in
    let p1 = Runtime.Pool.stats pool in
    let steals (s : Runtime.Pool.stats) =
      Array.fold_left (fun a (w : Runtime.Pool.worker_stats) -> a + w.Runtime.Pool.steals)
        s.Runtime.Pool.external_steals s.Runtime.Pool.per_worker
    in
    {
      secs;
      ok = ok out;
      items = float_of_int n;
      work_secs = secs;
      job_lat = None;
      layers =
        [
          ("pool.tasks", float_of_int (p1.Runtime.Pool.total_tasks - p0.Runtime.Pool.total_tasks));
          ("pool.steals", float_of_int (steals p1 - steals p0));
        ];
    }
  in
  let once () =
    match !plan with
    | None -> []
    | Some rep ->
        [
          ("plan.optimize_s", median !plan_s);
          ("plan.explored", float_of_int rep.Transform.Optimizer.explored);
          ( "plan.cost_ratio",
            ratio rep.Transform.Optimizer.cost_after rep.Transform.Optimizer.cost_before );
        ]
  in
  { setup; unit_; once; teardown }

(* service — an open loop on the farm service: master, 1 client and 2
   workers, Poisson arrivals at 8000 jobs/s, a ~25 us job body, a quarter
   of submissions on 4 hot keys so coalescing works, and a
   failure-detector grace, so the master's many-to-one [recv_any] always
   carries a timeout.  A unit is one service run of 4000 submissions;
   shedding counts as failure.  The 4 ranks share one domain: across two,
   job latency is the wake-up time of an idle vCPU, which on a shared host
   drifts by more than any bound a gate could hold. *)
let job_spins = 5_300

let job_body key =
  let x = ref (key lor 1) in
  for _ = 1 to job_spins do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  !x

let service ~seed =
  let procs = 4 and batch = 4 and rate = 8000.0 and arrivals = 4000 in
  let master = Runtime.Xoshiro.of_seed seed in
  (* Each unit draws its own arrival sequence, so a run's medians average
     over many sequences rather than hinge on one. *)
  let workload ~stream count =
    let rng = Runtime.Xoshiro.nth_child master stream in
    let gaps = Array.init count (fun _ -> -.log (1.0 -. Runtime.Xoshiro.float rng 1.0) /. rate) in
    let keys =
      Array.init count (fun g ->
          if Runtime.Xoshiro.int rng 4 = 0 then Runtime.Xoshiro.int rng 4 else 4 + g)
    in
    ( {
        Service.arrivals = count;
        gap = (fun _ k -> gaps.(k));
        job_of = (fun g -> keys.(g));
        run = job_body;
        flops = (fun _ -> 0);
      },
      Array.fold_left ( +. ) 0.0 gaps )
  in
  (* The master deals each admitted job at once while a worker is idle, so
     the queue holds at most one job at this rate; a bound of 8 leaves
     room for bursts yet sheds, and so fails units, if dispatch falls
     behind. *)
  let cfg =
    Service.default ~clients:1 ~queue_bound:8 ~batch ~admission:Service.Shed ~grace:0.5 ()
  in
  let ok count (r : Service.report) =
    r.Service.submitted = count
    && r.Service.completed + r.Service.rejected = r.Service.submitted
    && r.Service.rejected = 0
  in
  let unit_ unit_id =
    let wl, scheduled = workload ~stream:(unit_id + 1) arrivals in
    let (r, st), secs =
      spmd_unit ~unit_id "service.run_multicore" (fun () ->
          Service.run_multicore ~domains:1 ~procs cfg wl)
    in
    let completed = float_of_int r.Service.completed in
    {
      secs;
      ok = ok arrivals r;
      items = completed;
      work_secs = r.Service.duration;
      job_lat = Some (r.Service.p50, r.Service.p95);
      layers =
        spmd_layers st secs
        @ [
            ("service.batch_fill", ratio completed (float_of_int (r.Service.batches * batch)));
            ( "service.coalesced_frac",
              ratio (float_of_int r.Service.coalesced) (float_of_int r.Service.submitted) );
            ("service.rejected", float_of_int r.Service.rejected);
            ("service.redeals", float_of_int r.Service.redeals);
            ("service.max_queue_depth", float_of_int r.Service.max_queue_depth);
            ("service.gen_lag_frac", (r.Service.duration -. scheduled) /. scheduled);
          ];
    }
  in
  (* Set-up prices a cold service run to its first results: a burst of 8
     submissions, as many as the queue holds, so that the time is the
     service's own and not the arrival schedule's. *)
  let warm = { (fst (workload ~stream:0 8)) with Service.gap = (fun _ _ -> 0.0) } in
  {
    setup =
      (fun () ->
        let (r, _), secs = timed (fun () -> Service.run_multicore ~domains:1 ~procs cfg warm) in
        (secs, ok warm.Service.arrivals r));
    unit_;
    once = nothing;
    teardown = ignore;
  }

let workloads =
  [
    ("hqs", hqs);
    ("pipeline", pipeline);
    ("service", service);
  ]

(* ---------------------------------------------------------------- probes *)

(* Machine probes, each inside one engine run timed with the engine's own
   clock, so domain spawn is priced apart from steady-state messaging. *)

let probe_startup () =
  let xs =
    List.init 21 (fun _ ->
        snd
          (timed (fun () ->
               span "probe.machine.multicore.run" (fun () ->
                   Multicore.run ~domains ~procs:2 (fun _ -> ())))))
  in
  [ ("engine.startup_s", median (List.tl xs)) ]

let probe_rtt () =
  let rounds = 2000 and warm = 200 in
  let rtt = Array.make rounds 0.0 in
  span "probe.machine.engine.ping_pong" (fun () ->
      ignore
        (Multicore.run ~domains ~procs:2 (fun eng ->
             if eng.Engine.rank = 0 then
               for i = 0 to rounds - 1 do
                 let t0 = eng.Engine.time () in
                 eng.Engine.send ~dest:1 ~tag:1 i;
                 let (_ : int) = eng.Engine.recv ~src:1 ~tag:2 () in
                 rtt.(i) <- eng.Engine.time () -. t0
               done
             else
               for _ = 1 to rounds do
                 let (v : int) = eng.Engine.recv ~src:0 ~tag:1 () in
                 eng.Engine.send ~dest:0 ~tag:2 v
               done)));
  let xs = Array.to_list (Array.sub rtt warm (rounds - warm)) in
  [ ("fabric.rtt_p50_s", median xs); ("fabric.rtt_p90_s", quantile 0.9 xs) ]

let probe_allreduce () =
  let rounds = 1000 and warm = 100 in
  let lat = Array.make rounds 0.0 in
  span "probe.machine.comm.allreduce" (fun () ->
      ignore
        (Multicore.run ~domains ~procs:2 (fun eng ->
             let c = Comm.world eng in
             for i = 0 to rounds - 1 do
               let t0 = Comm.time c in
               ignore (Comm.allreduce c ( + ) i);
               if Comm.rank c = 0 then lat.(i) <- Comm.time c -. t0
             done)));
  [ ("collective.allreduce_p50_s", median (Array.to_list (Array.sub lat warm (rounds - warm)))) ]

(* ------------------------------------------------------------ the runner *)

(* A unit, its clock run on through a full major collection, with the GC
   and Obs deltas around it added to its layers. *)
let instrumented (w : workload) unit_id =
  let g0 = Gc.quick_stat () in
  let parks0, words0, _, kcalls0 = obs_totals () in
  let r = w.unit_ unit_id in
  let (), gc_s = timed (fun () -> span ~unit_id "gc.full_major" Gc.full_major) in
  let g1 = Gc.quick_stat () in
  let parks1, words1, _, kcalls1 = obs_totals () in
  let d a b = float_of_int (b - a) in
  {
    r with
    secs = r.secs +. gc_s;
    work_secs = r.work_secs +. gc_s;
    layers =
      r.layers
      @ [
          ("gc.collect_s", gc_s);
          ("gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
          ("gc.major_collections", d g0.Gc.major_collections g1.Gc.major_collections);
          ("fabric.parks", d parks0 parks1);
          ("fabric.minor_words", d words0 words1);
          ("kernel.calls", d kcalls0 kcalls1);
        ];
  }

let failed_unit = { secs = 0.0; ok = false; items = 0.0; work_secs = 0.0; job_lat = None; layers = [] }

let set_tracing on =
  tracing := on;
  if on then Obs.enable () else Obs.disable ()

(* Units back to back until [seconds] have passed (at least [min_units]),
   unit [i] traced when [traced i]; each result is paired with that flag. *)
let steady w ~seconds ~traced =
  let min_units = 5 in
  let t0 = now_ns () in
  let rec go i acc =
    if i >= min_units && since t0 >= seconds then List.rev acc
    else begin
      let on = traced i in
      set_tracing on;
      let r = try instrumented w i with _ -> failed_unit in
      set_tracing false;
      go (i + 1) ((on, r) :: acc)
    end
  in
  go 0 []

let items_per_s units =
  let good = List.filter (fun r -> r.ok) units in
  ratio (sum (List.map (fun r -> r.items) good)) (sum (List.map (fun r -> r.work_secs) good))

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec find () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> find ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) find
  with _ -> float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0

let end_to_end ~setups units =
  let good = List.filter (fun r -> r.ok) units in
  let p50, tail =
    match List.filter_map (fun r -> r.job_lat) good with
    | [] ->
        let xs = List.map (fun r -> r.secs) good in
        (median xs, quantile 0.9 xs)
    | lats -> (median (List.map fst lats), median (List.map snd lats))
  in
  [
    ("setup_s", "s", median setups);
    ("items_per_s", "1/s", items_per_s units);
    ("unit_p50_s", "s", p50);
    ("unit_tail_s", "s", tail);
    ("peak_rss_mb", "MB", peak_rss_mb ());
  ]

(* Per-layer metrics, with their units; 0 where a layer is not exercised. *)
let layer_units =
  [
    ("kernel.self_s", "s");
    ("kernel.bytes", "B");
    ("kernel.bytes_per_s", "B/s");
    ("pool.tasks", "count");
    ("pool.steals", "count");
    ("pool.steal_frac", "ratio");
    ("host_exec.self_s", "s");
    ("plan.optimize_s", "s");
    ("plan.explored", "count");
    ("plan.cost_ratio", "ratio");
    ("engine.startup_s", "s");
    ("fabric.msgs", "count");
    ("fabric.recvs", "count");
    ("fabric.parks", "count");
    ("fabric.sleeps", "count");
    ("fabric.parks_per_recv", "ratio");
    ("fabric.minor_words_per_msg", "words");
    ("fabric.rtt_p50_s", "s");
    ("fabric.rtt_p90_s", "s");
    ("collective.allreduce_p50_s", "s");
    ("program.wall_s", "s");
    ("program.outside_s", "s");
    ("hqs.local_sort_s", "s");
    ("hqs.local_sort_frac", "ratio");
    ("service.batch_fill", "ratio");
    ("service.coalesced_frac", "ratio");
    ("service.rejected", "count");
    ("service.redeals", "count");
    ("service.max_queue_depth", "count");
    ("service.parks_per_job", "ratio");
    ("service.gen_lag_frac", "ratio");
    ("gc.collect_s", "s");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("trace.unit_s", "s");
    ("trace.overhead_frac", "ratio");
  ]

let per_layer ~untraced ~traced ~probes =
  let good = List.filter (fun r -> r.ok) traced in
  let per_unit name = mean (List.filter_map (fun r -> List.assoc_opt name r.layers) good) in
  let maxed name =
    List.fold_left Float.max 0.0 (List.filter_map (fun r -> List.assoc_opt name r.layers) good)
  in
  let self = self_times () in
  let units = float_of_int (max 1 (List.length good)) in
  let self_of name = Option.value ~default:0.0 (Hashtbl.find_opt self name) /. units in
  let unit_s = mean (List.map (fun r -> r.secs) good) in
  let kernel_self = self_of "kernel" in
  let n_items = mean (List.map (fun r -> r.items) good) in
  let is_service = List.exists (fun r -> r.job_lat <> None) good in
  (* computed, not measured: every kernel call reads and writes one 8-byte
     word per element *)
  let kernel_bytes = per_unit "kernel.calls" *. 16.0 *. n_items in
  let msgs = per_unit "fabric.msgs" and recvs = per_unit "fabric.recvs" in
  let parks = per_unit "fabric.parks" in
  let ips_u = items_per_s untraced and ips_t = items_per_s traced in
  let local_sort = Option.value ~default:0.0 (List.assoc_opt "hqs.local_sort_s" probes) in
  let derived =
    [
      ("kernel.self_s", kernel_self);
      ("kernel.bytes", kernel_bytes);
      ("kernel.bytes_per_s", ratio kernel_bytes kernel_self);
      ("pool.tasks", per_unit "pool.tasks");
      ("pool.steals", per_unit "pool.steals");
      ("pool.steal_frac", ratio (per_unit "pool.steals") (per_unit "pool.tasks"));
      ("host_exec.self_s", self_of "transform.host_exec.eval");
      ("fabric.msgs", msgs);
      ("fabric.recvs", recvs);
      ("fabric.parks", parks);
      ("fabric.sleeps", per_unit "fabric.sleeps");
      ("fabric.parks_per_recv", ratio parks recvs);
      ("fabric.minor_words_per_msg", ratio (per_unit "fabric.minor_words") msgs);
      ("program.wall_s", per_unit "program.wall_s");
      ("program.outside_s", per_unit "program.outside_s");
      ( "hqs.local_sort_frac",
        ratio local_sort (median (List.map (fun r -> r.secs) (List.filter (fun r -> r.ok) untraced)))
      );
      ("service.batch_fill", per_unit "service.batch_fill");
      ("service.coalesced_frac", per_unit "service.coalesced_frac");
      ("service.rejected", per_unit "service.rejected");
      ("service.redeals", per_unit "service.redeals");
      ("service.max_queue_depth", maxed "service.max_queue_depth");
      ("service.parks_per_job", if is_service then ratio parks n_items else 0.0);
      ("service.gen_lag_frac", per_unit "service.gen_lag_frac");
      ("gc.collect_s", per_unit "gc.collect_s");
      ("gc.minor_words", per_unit "gc.minor_words");
      ("gc.major_collections", per_unit "gc.major_collections");
      ("trace.unit_s", unit_s);
      ("trace.overhead_frac", ratio (ips_u -. ips_t) ips_u);
    ]
  in
  let known = derived @ probes in
  List.map
    (fun (name, u) -> (name, u, Option.value ~default:0.0 (List.assoc_opt name known)))
    layer_units

(* ------------------------------------------------------------------ main *)

let setups = 21

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let spans_path = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S steady-state measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans_path, "FILE write the traced run's spans here");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let make =
    match List.assoc_opt !workload workloads with
    | Some m when !seed >= 0 && !seconds >= 1 && (!trace = 0 || !trace = 1) -> m
    | _ ->
        prerr_endline usage;
        prerr_endline
          ("workloads: " ^ String.concat ", " (List.map fst workloads));
        exit 2
  in
  let w = make ~seed:!seed in
  set_tracing (!trace = 1);
  let setup () =
    let secs, ok = w.setup () in
    let (), gc_s = timed Gc.full_major in
    (secs +. gc_s, ok)
  in
  let setup_results = List.init setups (fun _ -> try span "setup" setup with _ -> (0.0, false)) in
  set_tracing false;
  let setup_s = List.map fst (List.filter snd setup_results) in
  let seconds = float_of_int !seconds in
  let units, metrics =
    if !trace = 0 then begin
      let units = List.map snd (steady w ~seconds ~traced:(fun _ -> false)) in
      (units, end_to_end ~setups:setup_s units)
    end
    else begin
      (* odd units traced, even ones not: the overhead comparison sees the
         same machine conditions on both sides *)
      let units = steady w ~seconds ~traced:(fun i -> i mod 2 = 1) in
      let side on = List.map snd (List.filter (fun (t, _) -> t = on) units) in
      set_tracing true;
      let probes =
        List.concat [ probe_startup (); probe_rtt (); probe_allreduce (); w.once () ]
      in
      set_tracing false;
      if !spans_path <> "" then write_spans !spans_path;
      (List.map snd units, per_layer ~untraced:(side false) ~traced:(side true) ~probes)
    end
  in
  w.teardown ();
  let attempted = setups + List.length units in
  let failed =
    List.length (List.filter (fun (_, ok) -> not ok) setup_results)
    + List.length (List.filter (fun r -> not r.ok) units)
  in
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  List.iter (fun (n, u, v) -> Printf.printf "%-28s %.6g %s\n" n v u) metrics;
  Printf.printf "%-28s %d/%d units\n" "failed_frac" failed attempted;
  let json =
    Obs.Json.Obj
      [
        ("correct", Obs.Json.Bool (failed = 0 && finite));
        ("attempted", Obs.Json.Int attempted);
        ("failed", Obs.Json.Int failed);
        ( "metrics",
          Obs.Json.Obj
            (List.map
               (fun (n, u, v) ->
                 (n, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String u) ]))
               metrics) );
      ]
  in
  print_endline (Obs.Json.to_string json)
