// Package vtk writes forest-of-octrees meshes as legacy-VTK unstructured
// grids of hexahedral cells, for the visualizations of Figures 1, 6, and 8
// (partition coloring, refinement levels, and solution fields).
package vtk

import (
	"bufio"
	"fmt"
	"os"
	"sort"

	"repro/internal/connectivity"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/octant"
)

// CellField is one scalar value per leaf.
type CellField struct {
	Name   string
	Values []float64
}

// WriteGathered gathers the whole forest to rank 0 and writes a single
// file; for small meshes and examples only. Collective. Non-root ranks
// return nil without writing. The rank owning each leaf is added as a cell
// field, reproducing the partition coloring of Figure 1.
func WriteGathered(path string, f *core.Forest, fields ...CellField) error {
	type part struct {
		Leaves []octant.Octant
		Fields [][]float64
	}
	vals := make([][]float64, len(fields))
	for i, fl := range fields {
		vals[i] = fl.Values
	}
	parts := mpi.Gather(f.Comm, 0, part{Leaves: f.Local, Fields: vals})
	if f.Comm.Rank() != 0 {
		return nil
	}
	var leaves []octant.Octant
	var rank []float64
	merged := make([][]float64, len(fields))
	for r, p := range parts {
		leaves = append(leaves, p.Leaves...)
		for range p.Leaves {
			rank = append(rank, float64(r))
		}
		for i := range merged {
			merged[i] = append(merged[i], p.Fields[i]...)
		}
	}
	out := []CellField{{Name: "mpirank", Values: rank}}
	for i, fl := range fields {
		out = append(out, CellField{Name: fl.Name, Values: merged[i]})
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	defer file.Close()
	w := bufio.NewWriter(file)
	defer w.Flush()
	return writeLeaves(w, f.Conn, leaves, out...)
}

func writeLeaves(w *bufio.Writer, conn *connectivity.Conn, leaves []octant.Octant, fields ...CellField) error {
	geom := conn.Geometry()
	if geom == nil {
		return fmt.Errorf("vtk: connectivity has no geometry")
	}
	// Deduplicate corner points.
	type key struct {
		t       int32
		x, y, z int32
	}
	pointID := map[key]int{}
	var points [][3]float64
	ids := make([][8]int, len(leaves))
	// VTK_HEXAHEDRON corner order from z-order corners.
	vtkOrder := [8]int{0, 1, 3, 2, 4, 5, 7, 6}
	for li, o := range leaves {
		for c := 0; c < 8; c++ {
			x, y, z := o.Corner(c)
			k := key{o.Tree, x, y, z}
			id, ok := pointID[k]
			if !ok {
				id = len(points)
				pointID[k] = id
				p := geom.X(o.Tree, [3]float64{
					connectivity.RefCoord(x), connectivity.RefCoord(y), connectivity.RefCoord(z),
				})
				points = append(points, p)
			}
			ids[li][c] = id
		}
	}

	fmt.Fprint(w, "# vtk DataFile Version 3.0\nforest of octrees\nASCII\nDATASET UNSTRUCTURED_GRID\n")
	fmt.Fprintf(w, "POINTS %d double\n", len(points))
	for _, p := range points {
		fmt.Fprintf(w, "%g %g %g\n", p[0], p[1], p[2])
	}
	fmt.Fprintf(w, "CELLS %d %d\n", len(leaves), 9*len(leaves))
	for li := range leaves {
		fmt.Fprint(w, "8")
		for _, c := range vtkOrder {
			fmt.Fprintf(w, " %d", ids[li][c])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "CELL_TYPES %d\n", len(leaves))
	for range leaves {
		fmt.Fprintln(w, 12)
	}

	fmt.Fprintf(w, "CELL_DATA %d\n", len(leaves))
	fmt.Fprintf(w, "SCALARS level double\nLOOKUP_TABLE default\n")
	for _, o := range leaves {
		fmt.Fprintf(w, "%d\n", o.Level)
	}
	fmt.Fprintf(w, "SCALARS tree double\nLOOKUP_TABLE default\n")
	for _, o := range leaves {
		fmt.Fprintf(w, "%d\n", o.Tree)
	}
	names := map[string]bool{"level": true, "tree": true}
	sorted := append([]CellField(nil), fields...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, fl := range sorted {
		if names[fl.Name] {
			continue
		}
		names[fl.Name] = true
		if len(fl.Values) != len(leaves) {
			return fmt.Errorf("vtk: field %q has %d values for %d cells", fl.Name, len(fl.Values), len(leaves))
		}
		fmt.Fprintf(w, "SCALARS %s double\nLOOKUP_TABLE default\n", fl.Name)
		for _, v := range fl.Values {
			fmt.Fprintf(w, "%g\n", v)
		}
	}
	return nil
}
