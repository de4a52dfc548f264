(* Recognition of registry functions as flat-tier operators.

   The flat host kernels ([Scl.Flat_exec]) work on unboxed [float array]s
   with the operator matched OUTSIDE the loop, so they can only run
   payload functions drawn from a closed operator vocabulary.  This
   module is the single mapping from [Fn] registry names to that
   vocabulary, shared by the cost model (to price flat legs cheaper),
   the host evaluator (to dispatch eligible map runs onto flat kernels)
   and the code generator (to emit flat-tier source).  Recognition is
   name-based — the registry already guarantees one meaning per name —
   so fused closures (e.g. "fincr.fdouble") are deliberately not
   recognised: they would force a closure call per element, exactly the
   cost the flat tier exists to avoid.  A run of recognised maps is
   fused by the host evaluator and the code generator instead, as a
   first-order [Scl.Flat_exec.Chain] of the recognised stages, which the
   kernels run stage by stage over cache blocks with no closure call at
   all. *)

let fun1_of (f : Fn.t) : Scl.Flat_exec.fun1 option =
  match f.Fn.name with
  | "id" -> Some Scl.Flat_exec.Id
  | "fneg" -> Some Scl.Flat_exec.Neg
  | "fincr" -> Some (Scl.Flat_exec.Offset 1.0)
  | "fhalve" -> Some (Scl.Flat_exec.Scale 0.5)
  | "fdouble" -> Some (Scl.Flat_exec.Scale 2.0)
  | _ -> None

let fun2_of (f : Fn.t2) : Scl.Flat_exec.fun2 option =
  match f.Fn.name2 with
  | "fadd" -> Some Scl.Flat_exec.Add
  | "fmax" -> Some Scl.Flat_exec.Max
  | "fmin" -> Some Scl.Flat_exec.Min
  | _ -> None

(* Source forms for the code generator (constructors of
   [Scl.Flat_exec.fun1]/[fun2]). *)

let fun1_source (f : Fn.t) : string option =
  match f.Fn.name with
  | "id" -> Some "Scl.Flat_exec.Id"
  | "fneg" -> Some "Scl.Flat_exec.Neg"
  | "fincr" -> Some "Scl.Flat_exec.Offset 1.0"
  | "fhalve" -> Some "Scl.Flat_exec.Scale 0.5"
  | "fdouble" -> Some "Scl.Flat_exec.Scale 2.0"
  | _ -> None

let fun2_source (f : Fn.t2) : string option =
  match f.Fn.name2 with
  | "fadd" -> Some "Scl.Flat_exec.Add"
  | "fmax" -> Some "Scl.Flat_exec.Max"
  | "fmin" -> Some "Scl.Flat_exec.Min"
  | _ -> None
