(** The full benchmark suite, mirroring the SPEC95 programs of the paper's
    Figure 5 / Table 1 (gcc appears as "cc", as in the paper's figure). *)

let integer =
  [
    W_go.entry;
    W_m88ksim.entry;
    W_cc.entry;
    W_compress.entry;
    W_li.entry;
    W_ijpeg.entry;
    W_perl.entry;
    W_vortex.entry;
  ]

let floating =
  [
    W_tomcatv.entry;
    W_swim.entry;
    W_su2cor.entry;
    W_hydro2d.entry;
    W_mgrid.entry;
    W_applu.entry;
    W_turb3d.entry;
    W_apsi.entry;
    W_fpppp.entry;
    W_wave5.entry;
  ]

let all = integer @ floating

let find name =
  match List.find_opt (fun e -> String.equal e.Registry.name name) all with
  | Some e -> e
  | None -> raise Not_found
