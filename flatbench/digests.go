package main

// reproduceDigests pins the reproduction at scale 0.1: the sha256 of each
// experiment's text output, as `flatnet run -scale 0.1 all` prints it
// between its headers. Experiment output is deterministic (seeded RNG), so
// any change to these is a change to the science and must be deliberate.
var reproduceDigests = map[string]string{
	"fig2":          "91fb1f0ee6cc3bc4a6d6b82ad7a76c153e5b9cb2ca97dfc29a547b9cbf78ac33",
	"table1":        "6f7a31e561633afd1d828a82e7d304ad0ac20e12a49a74dd2cbf18b9851c66ba",
	"fig3":          "b65d9e64ed18b220946c3fb391f06da626a26a0170d3d36c3877c0212328c02f",
	"fig4":          "a7542b815f2ff38293ee604b8766dda7d0057c64313a3ee3e0defba0692a8c08",
	"fig6":          "6743841b2c933d0da65e77a01f65fca70ad337b3245e058c4bb9ebf72389b1b3",
	"table2":        "519c0affcf529080934673cfb199660f1e1a4e6b463b3574f5b001036b81c4d6",
	"fig7":          "d38c46e0c3c910fbb40f787f7593d3a2f44c5cddaa5ec743d68f6c29a8dd3048",
	"fig8":          "8ed58a023b1c77f892e1a5cac76be9c373b3461f2d46af22379e63ee6adfa80b",
	"fig9":          "83b76824d80b324b22504c3594e2fa70cd33b78ff3f3b85ec559eef136292eec",
	"fig10":         "2b3dff0cc0e330d06b660d33e988d5778e05a8ca7194f9c60613ce22defab52c",
	"fig11":         "d01a8a13ccd70950a8d20e2c3560a5707b12c0fa1fce284b61d26d83eb1002d6",
	"fig12":         "78528c5c7c146a1eb96cc22970805bb7f4ac99f4730e07c835f2f34f9984d9c8",
	"fig13":         "86b177583a7d0adf31b1b22dc86cbcfd500738ba0b3d73ac642df168f2dad441",
	"table3":        "2c273fed0276d80e0265a40e60b3047e3e714c450ab422c51bfe984efa7248eb",
	"appA":          "effcd5d46361294006b94b20f47589a7815203c45082f00b9db785d7a330f3e4",
	"appB":          "241b1cafce25f80c643e48f2bc8c6f00a1ce1073da2c56794df1156bcf47888a",
	"sec41":         "15e66a2b030237e0eb8f469d11bb246016b7c1eea57a90a0c6144b105885b1a0",
	"sec5":          "6ede35a04fd1841bec2a3239f91908b39e787da7a0a8ba93aa192bd62b64f5e3",
	"ablation":      "c3ee4b0ad4f612ac6f5cd61c8cda5704d3c40dfd741805f52fb611119aee32db",
	"ablation-ties": "9d7b98de6e81cd14ecdbe197e3ad95fd2ccb9eb751ccb07fbd19a228c504b296",
	"sensitivity":   "a7d7a73dff8c71ea647712b2bd1850649c42050a46683e8c7446fcd2726dfb33",
	"hijack":        "836a14ed357966631bdd904f6c9437ae4462772de55b14323dc6f9d744d85584",
	"timeline":      "1228651765a00e026e18bab1b8564c380708af0e7f10ec70795b3d4e6259c893",
}
