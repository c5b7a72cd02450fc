// Package repro is a from-scratch Go reproduction of "Extreme-Scale AMR"
// (Burstedde, Ghattas, Gurnis, Isaac, Stadler, Warburton, Wilcox; SC '10):
// the p4est forest-of-octrees parallel adaptive mesh refinement library,
// the mangll arbitrary-order continuous/discontinuous spectral element
// layer, and the paper's three applications — dynamic-AMR advection,
// global mantle convection (Rhea), and global seismic wave propagation
// (dGea) — together with drivers that regenerate every table and figure of
// the paper's evaluation and one benchmark harness. See README.md,
// DESIGN.md, and EXPERIMENTS.md.
//
// The root package holds no code; the library lives under internal/ and is
// exercised through the cmd/ tools, the examples/, and bench/.
package repro
