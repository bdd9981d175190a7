module powerstruggle/bench

go 1.22

require powerstruggle v0.0.0

replace powerstruggle => ../
