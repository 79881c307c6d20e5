//===-- scad/ScadParser.h - Mini-OpenSCAD frontend --------------*- C++ -*-===//
//
// Part of the ShrinkRay reproduction. MIT licensed; see README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A frontend for the OpenSCAD subset the paper's benchmarks use (Sec. 6:
/// "we implemented a serializer from OpenSCAD's language to s-expressions"
/// and "a translator that can flatten these programs into loop-free CSG").
/// Parsing evaluates directly to flat CSG: `for` loops are unrolled and
/// arithmetic is folded, exactly the paper's flattening translator.
///
/// Supported subset:
///   cube(size|[x,y,z], center=bool)   cylinder(h=, r=, center=bool)
///   sphere(r)                          translate([x,y,z]) / scale / rotate
///   union() / difference() / intersection() with { } blocks
///   for (i = [start : end]) / [start : step : end] / [v1, v2, ...]
///   name = expr;  assignments, arithmetic with + - * / and sin/cos
///   // and /* */ comments
///
/// Untrusted sources stay bounded: a range literal holds at most 2^20
/// elements, unrolling re-parses at most 4 MiB of loop bodies per parse,
/// and a loop stops once its block holds more than kMaxSourceDepth
/// solids; past any of these the parse fails with a diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef SHRINKRAY_SCAD_SCADPARSER_H
#define SHRINKRAY_SCAD_SCADPARSER_H

#include "cad/Term.h"

#include <string>
#include <string_view>

namespace shrinkray {
namespace scad {

/// Result of parsing OpenSCAD source: a flat CSG term or a diagnostic.
struct ScadResult {
  TermPtr Value;     ///< non-null on success; satisfies isFlatCsg()
  std::string Error; ///< diagnostic on failure

  explicit operator bool() const { return Value != nullptr; }
};

/// Parses and flattens OpenSCAD \p Source into flat CSG. Top-level
/// statements are implicitly unioned (OpenSCAD semantics).
ScadResult parseScad(std::string_view Source);

} // namespace scad
} // namespace shrinkray

#endif // SHRINKRAY_SCAD_SCADPARSER_H
