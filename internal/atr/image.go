package atr

import (
	"fmt"
	"math"
)

// Frame dimensions: 101×100 8-bit pixels = 10,100 bytes, matching the
// paper's 10.1 KB input payload exactly.
const (
	FrameW = 101
	FrameH = 100
	// FrameBytes is the on-the-wire size of one raw frame.
	FrameBytes = FrameW * FrameH
)

// Image is a grayscale image with float64 pixels in [0, 1], row-major.
type Image struct {
	W, H int
	Pix  []float64
}

// NewImage returns a black w×h image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("atr: bad image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h)}
}

// At returns the pixel at (x, y); out-of-bounds reads return 0.
func (im *Image) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are dropped.
func (im *Image) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.W+x] = v
}

// SubImage copies the w×h region with top-left corner (x0, y0), clamping
// to the image bounds (outside pixels read as 0).
func (im *Image) SubImage(x0, y0, w, h int) *Image {
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out.Set(x, y, im.At(x0+x, y0+y))
		}
	}
	return out
}

// Mean returns the mean pixel value.
func (im *Image) Mean() float64 {
	var s float64
	for _, v := range im.Pix {
		s += v
	}
	return s / float64(len(im.Pix))
}

func clampUnit(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Template is a known target signature the detector searches for.
type Template struct {
	Name string
	// BaseSizePx is the apparent width of the target at RefDistanceM.
	BaseSizePx int
	// RefDistanceM is the distance at which the target subtends
	// BaseSizePx pixels.
	RefDistanceM float64
	// Img is the normalized template image at BaseSizePx.
	Img *Image
}

// DefaultTemplates returns the built-in target set: simple geometric
// signatures (bar, cross, block) standing in for the paper's pre-defined
// targets.
func DefaultTemplates() []Template {
	return []Template{
		{Name: "tank", BaseSizePx: 16, RefDistanceM: 100, Img: renderTarget("tank", 16)},
		{Name: "truck", BaseSizePx: 16, RefDistanceM: 100, Img: renderTarget("truck", 16)},
		{Name: "bunker", BaseSizePx: 16, RefDistanceM: 100, Img: renderTarget("bunker", 16)},
	}
}

// renderTarget draws a size×size synthetic target shape.
func renderTarget(kind string, size int) *Image {
	im := NewImage(size, size)
	c := float64(size-1) / 2
	for y := 0; y < size; y++ {
		for x := 0; x < size; x++ {
			dx, dy := float64(x)-c, float64(y)-c
			var v float64
			switch kind {
			case "tank": // wide body with a barrel line
				if math.Abs(dy) < float64(size)/5 && math.Abs(dx) < float64(size)/2.5 {
					v = 1
				}
				if math.Abs(dy-float64(size)/8) < 1 && dx > 0 {
					v = 1
				}
			case "truck": // two stacked blocks
				if math.Abs(dy) < float64(size)/6 && math.Abs(dx) < float64(size)/3 {
					v = 0.9
				}
				if dy < 0 && math.Abs(dy) < float64(size)/3 && math.Abs(dx-float64(size)/6) < float64(size)/8 {
					v = 1
				}
			case "bunker": // hollow square
				r := math.Max(math.Abs(dx), math.Abs(dy))
				if r < float64(size)/2.2 && r > float64(size)/3.2 {
					v = 1
				}
			default:
				if math.Hypot(dx, dy) < float64(size)/3 {
					v = 1
				}
			}
			im.Set(x, y, v)
		}
	}
	return im
}

// Resize scales the image to w×h with bilinear interpolation; it renders
// a target's apparent size at a given distance.
func (im *Image) Resize(w, h int) *Image {
	out := NewImage(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sx := (float64(x) + 0.5) * float64(im.W) / float64(w)
			sy := (float64(y) + 0.5) * float64(im.H) / float64(h)
			out.Set(x, y, im.bilinear(sx-0.5, sy-0.5))
		}
	}
	return out
}

func (im *Image) bilinear(x, y float64) float64 {
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	fx, fy := x-float64(x0), y-float64(y0)
	return im.At(x0, y0)*(1-fx)*(1-fy) +
		im.At(x0+1, y0)*fx*(1-fy) +
		im.At(x0, y0+1)*(1-fx)*fy +
		im.At(x0+1, y0+1)*fx*fy
}

// PlacedTarget records where a synthetic target was drawn, for checking
// detector output.
type PlacedTarget struct {
	Template  string
	X, Y      int // top-left corner in the frame
	SizePx    int // apparent size
	DistanceM float64
}

// Scene generates synthetic sensor frames with known ground truth.
type Scene struct {
	rng       *rng
	Templates []Template
	// NoiseSigma is the additive Gaussian clutter level.
	NoiseSigma float64
	// Background is the mean background intensity.
	Background float64
}

// NewScene returns a deterministic scene generator. Frames are a pure
// function of the seed: the generator is a self-contained splitmix64
// stream (internal/splitmix), so synthesized scenes are byte-stable
// across Go releases.
func NewScene(seed int64) *Scene {
	return &Scene{
		rng:        newRNG(seed),
		Templates:  DefaultTemplates(),
		NoiseSigma: 0.05,
		Background: 0.2,
	}
}

// Frame renders one FrameW×FrameH frame containing n targets at random
// positions and distances, returning the frame and the ground truth.
func (s *Scene) Frame(n int) (*Image, []PlacedTarget) {
	im := NewImage(FrameW, FrameH)
	for i := range im.Pix {
		im.Pix[i] = clampUnit(s.Background + s.rng.normFloat64()*s.NoiseSigma)
	}
	var placed []PlacedTarget
	for i := 0; i < n; i++ {
		tpl := s.Templates[s.rng.intn(len(s.Templates))]
		dist := 60 + s.rng.Float64()*120 // 60–180 m
		size := apparentSize(tpl, dist)
		scaled := tpl.Img.Resize(size, size)
		x := s.rng.intn(FrameW - size)
		y := s.rng.intn(FrameH - size)
		for dy := 0; dy < size; dy++ {
			for dx := 0; dx < size; dx++ {
				v := scaled.At(dx, dy)
				if v > 0 {
					im.Set(x+dx, y+dy, clampUnit(im.At(x+dx, y+dy)+0.7*v))
				}
			}
		}
		placed = append(placed, PlacedTarget{
			Template: tpl.Name, X: x, Y: y, SizePx: size, DistanceM: dist,
		})
	}
	return im, placed
}

// apparentSize is the pinhole-projection size of a template at distance d.
func apparentSize(tpl Template, distanceM float64) int {
	size := int(math.Round(float64(tpl.BaseSizePx) * tpl.RefDistanceM / distanceM))
	if size < 4 {
		size = 4
	}
	if size > 40 {
		size = 40
	}
	return size
}

// DistanceForSize inverts apparentSize: the distance at which tpl appears
// sizePx wide. It is the ground-truth relation the ComputeDistance block
// estimates.
func DistanceForSize(tpl Template, sizePx float64) float64 {
	if sizePx <= 0 {
		return math.Inf(1)
	}
	return float64(tpl.BaseSizePx) * tpl.RefDistanceM / sizePx
}
