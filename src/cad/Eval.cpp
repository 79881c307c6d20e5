//===-- cad/Eval.cpp - LambdaCAD evaluator / flattener --------------------===//

#include "cad/Eval.h"

#include "cad/Sexp.h"

#include "linalg/Vec3.h"

#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

using namespace shrinkray;

namespace {

struct Value;
using ValuePtr = std::shared_ptr<const Value>;

/// Lexical environment: a persistent chain of bindings.
struct Env {
  Symbol Name;
  ValuePtr Bound;
  std::shared_ptr<const Env> Next;

  static std::shared_ptr<const Env> bind(std::shared_ptr<const Env> Outer,
                                         Symbol Name, ValuePtr V) {
    auto E = std::make_shared<Env>();
    E->Name = Name;
    E->Bound = std::move(V);
    E->Next = std::move(Outer);
    return E;
  }

  static const Value *lookup(const Env *E, Symbol Name) {
    for (; E; E = E->Next.get())
      if (E->Name == Name)
        return E->Bound.get();
    return nullptr;
  }
};

using EnvPtr = std::shared_ptr<const Env>;

/// Runtime values of the LambdaCAD interpreter.
struct Value {
  enum class Kind { Num, Cad, List, Closure, OpRefVal } K;

  // Num
  double Num = 0.0;
  bool NumIsInt = false;

  // Cad
  TermPtr Cad;

  // List
  std::vector<ValuePtr> Elems;

  // Closure
  std::vector<Symbol> Params;
  TermPtr Body;
  EnvPtr Captured;

  // OpRefVal
  OpKind RefOp = OpKind::Union;

  static ValuePtr num(double D, bool IsInt) {
    auto V = std::make_shared<Value>();
    V->K = Kind::Num;
    V->Num = D;
    V->NumIsInt = IsInt;
    return V;
  }
  static ValuePtr cad(TermPtr T) {
    auto V = std::make_shared<Value>();
    V->K = Kind::Cad;
    V->Cad = std::move(T);
    return V;
  }
  static ValuePtr list(std::vector<ValuePtr> Elems) {
    auto V = std::make_shared<Value>();
    V->K = Kind::List;
    V->Elems = std::move(Elems);
    return V;
  }
  static ValuePtr closure(std::vector<Symbol> Params, TermPtr Body,
                          EnvPtr Captured) {
    auto V = std::make_shared<Value>();
    V->K = Kind::Closure;
    V->Params = std::move(Params);
    V->Body = std::move(Body);
    V->Captured = std::move(Captured);
    return V;
  }
  static ValuePtr opRef(OpKind Op) {
    auto V = std::make_shared<Value>();
    V->K = Kind::OpRefVal;
    V->RefOp = Op;
    return V;
  }
};

class Evaluator {
public:
  explicit Evaluator(uint64_t FuelLimit) : Fuel(FuelLimit) {}

  EvalResult run(const TermPtr &Program) {
    ValuePtr V = eval(Program, nullptr);
    if (!V)
      return {nullptr, Diag};
    if (V->K != Value::Kind::Cad)
      return {nullptr, "program did not evaluate to a CAD solid"};
    // A few bytes of Fold/Repeat flatten into a Union spine as long as the
    // iteration count, and the walkers downstream recurse per level: bound
    // the result as the parsers bound their input.
    if (V->Cad->depth() > kMaxSourceDepth)
      return {nullptr,
              "nesting deeper than " + std::to_string(kMaxSourceDepth)};
    return {V->Cad, ""};
  }

private:
  uint64_t Fuel;
  std::string Diag;

  ValuePtr fail(const std::string &Message) {
    if (Diag.empty())
      Diag = Message;
    return nullptr;
  }

  ValuePtr failKind(const char *What, const char *Expected) {
    std::ostringstream Os;
    Os << What << ": expected " << Expected;
    return fail(Os.str());
  }

  bool burnFuel() {
    if (Fuel == 0) {
      fail("evaluation fuel exhausted (diverging program?)");
      return false;
    }
    --Fuel;
    return true;
  }

  ValuePtr evalNum(const TermPtr &T, const Env *E, double &Out) {
    ValuePtr V = eval(T, E);
    if (!V)
      return nullptr;
    if (V->K != Value::Kind::Num)
      return failKind("arithmetic operand", "a number");
    Out = V->Num;
    return V;
  }

  ValuePtr evalCad(const TermPtr &T, const Env *E, TermPtr &Out) {
    ValuePtr V = eval(T, E);
    if (!V)
      return nullptr;
    if (V->K != Value::Kind::Cad)
      return failKind("solid operand", "a CAD solid");
    Out = V->Cad;
    return V;
  }

  /// Applies a closure to already-evaluated arguments.
  ValuePtr apply(const Value &Fn, const std::vector<ValuePtr> &Args) {
    if (Fn.K != Value::Kind::Closure)
      return failKind("application", "a function");
    if (Fn.Params.size() != Args.size())
      return fail("arity mismatch in function application");
    EnvPtr E = Fn.Captured;
    for (size_t I = 0; I < Args.size(); ++I)
      E = Env::bind(E, Fn.Params[I], Args[I]);
    return eval(Fn.Body, E.get());
  }

  /// Coerces a value to a list: lists stay, everything else becomes a
  /// singleton. Needed for the Fold-as-flat-map semantics (Figure 17).
  static std::vector<ValuePtr> asList(const ValuePtr &V) {
    if (V->K == Value::Kind::List)
      return V->Elems;
    return {V};
  }

  ValuePtr evalFold(const TermPtr &T, const Env *E) {
    ValuePtr Fn = eval(T->child(0), E);
    if (!Fn)
      return nullptr;
    ValuePtr Init = eval(T->child(1), E);
    if (!Init)
      return nullptr;
    ValuePtr ListV = eval(T->child(2), E);
    if (!ListV)
      return nullptr;
    if (ListV->K != Value::Kind::List)
      return failKind("Fold", "a list");

    if (Fn->K == Value::Kind::OpRefVal) {
      // Classic right fold of a boolean operator over CAD solids.
      if (Init->K != Value::Kind::Cad)
        return failKind("Fold initial value", "a CAD solid");
      TermPtr Acc = Init->Cad;
      for (size_t I = ListV->Elems.size(); I > 0; --I) {
        if (!burnFuel())
          return nullptr;
        const ValuePtr &Elem = ListV->Elems[I - 1];
        if (Elem->K != Value::Kind::Cad)
          return failKind("Fold element", "a CAD solid");
        // Union(x, Empty) == x: fold over Empty keeps terms tidy.
        if (Fn->RefOp == OpKind::Union && Acc->kind() == OpKind::Empty) {
          Acc = Elem->Cad;
          continue;
        }
        Acc = makeTerm(Op(Fn->RefOp), {Elem->Cad, Acc});
      }
      return Value::cad(Acc);
    }

    if (Fn->K == Value::Kind::Closure && Fn->Params.size() == 1) {
      // Flat-map: apply f to each element, concatenating list results.
      std::vector<ValuePtr> Out;
      for (const ValuePtr &Elem : ListV->Elems) {
        ValuePtr R = apply(*Fn, {Elem});
        if (!R)
          return nullptr;
        for (ValuePtr &Item : asList(R))
          Out.push_back(std::move(Item));
      }
      // Append the initial list (Nil in all paper examples).
      if (Init->K == Value::Kind::List)
        for (const ValuePtr &Item : Init->Elems)
          Out.push_back(Item);
      return Value::list(std::move(Out));
    }

    return fail("Fold expects a boolean operator or a unary function");
  }

  ValuePtr evalMap(const TermPtr &T, const Env *E, bool WithIndex) {
    ValuePtr Fn = eval(T->child(0), E);
    if (!Fn)
      return nullptr;
    ValuePtr ListV = eval(T->child(1), E);
    if (!ListV)
      return nullptr;
    if (ListV->K != Value::Kind::List)
      return failKind(WithIndex ? "Mapi" : "Map", "a list");

    std::vector<ValuePtr> Out;
    Out.reserve(ListV->Elems.size());
    for (size_t I = 0; I < ListV->Elems.size(); ++I) {
      std::vector<ValuePtr> Args;
      if (WithIndex)
        Args.push_back(Value::num(static_cast<double>(I), /*IsInt=*/true));
      Args.push_back(ListV->Elems[I]);
      ValuePtr R = apply(*Fn, Args);
      if (!R)
        return nullptr;
      Out.push_back(std::move(R));
    }
    return Value::list(std::move(Out));
  }

  ValuePtr eval(const TermPtr &T, const Env *E) {
    if (!burnFuel())
      return nullptr;

    const Op &O = T->op();
    switch (O.kind()) {
    // --- literals and leaves -------------------------------------------
    case OpKind::Int:
      return Value::num(static_cast<double>(O.intValue()), /*IsInt=*/true);
    case OpKind::Float:
      return Value::num(O.floatValue(), /*IsInt=*/false);
    case OpKind::Empty:
    case OpKind::Unit:
    case OpKind::Cylinder:
    case OpKind::Sphere:
    case OpKind::Hexagon:
      return Value::cad(makeTerm(Op(O.kind())));
    case OpKind::External:
      return Value::cad(T);
    case OpKind::Var: {
      const Value *Bound = Env::lookup(E, O.symbol());
      if (!Bound)
        return fail("unbound variable '" + std::string(O.symbol().str()) +
                    "'");
      return std::make_shared<Value>(*Bound);
    }
    case OpKind::OpRef:
      return Value::opRef(O.referencedOp());

    // --- affine transformations ----------------------------------------
    case OpKind::Translate:
    case OpKind::Scale:
    case OpKind::Rotate: {
      const TermPtr &Vec = T->child(0);
      if (Vec->kind() != OpKind::Vec3Ctor)
        return failKind("affine transform", "a Vec3 argument");
      double X, Y, Z;
      if (!evalNum(Vec->child(0), E, X) || !evalNum(Vec->child(1), E, Y) ||
          !evalNum(Vec->child(2), E, Z))
        return nullptr;
      TermPtr Child;
      if (!evalCad(T->child(1), E, Child))
        return nullptr;
      return Value::cad(makeTerm(O, {tVec3(X, Y, Z), Child}));
    }

    // --- booleans ---------------------------------------------------------
    case OpKind::Union:
    case OpKind::Diff:
    case OpKind::Inter: {
      TermPtr A, B;
      if (!evalCad(T->child(0), E, A) || !evalCad(T->child(1), E, B))
        return nullptr;
      return Value::cad(makeTerm(O, {A, B}));
    }

    // --- arithmetic -----------------------------------------------------
    case OpKind::Add:
    case OpKind::Sub:
    case OpKind::Mul:
    case OpKind::Div: {
      double A, B;
      ValuePtr Va = evalNum(T->child(0), E, A);
      if (!Va)
        return nullptr;
      ValuePtr Vb = evalNum(T->child(1), E, B);
      if (!Vb)
        return nullptr;
      bool IsInt = Va->NumIsInt && Vb->NumIsInt;
      switch (O.kind()) {
      case OpKind::Add:
        return Value::num(A + B, IsInt);
      case OpKind::Sub:
        return Value::num(A - B, IsInt);
      case OpKind::Mul:
        return Value::num(A * B, IsInt);
      default:
        if (B == 0.0)
          return fail("division by zero");
        return Value::num(A / B, /*IsInt=*/false);
      }
    }
    case OpKind::Sin: {
      double A;
      if (!evalNum(T->child(0), E, A))
        return nullptr;
      return Value::num(std::sin(degToRad(A)), /*IsInt=*/false);
    }
    case OpKind::Cos: {
      double A;
      if (!evalNum(T->child(0), E, A))
        return nullptr;
      return Value::num(std::cos(degToRad(A)), /*IsInt=*/false);
    }
    case OpKind::Arctan: {
      double A, B;
      if (!evalNum(T->child(0), E, A) || !evalNum(T->child(1), E, B))
        return nullptr;
      return Value::num(std::atan2(A, B) * 180.0 / 3.14159265358979323846,
                        /*IsInt=*/false);
    }

    // --- lists -------------------------------------------------------------
    case OpKind::Nil:
      return Value::list({});
    case OpKind::Cons: {
      ValuePtr Head = eval(T->child(0), E);
      if (!Head)
        return nullptr;
      ValuePtr Tail = eval(T->child(1), E);
      if (!Tail)
        return nullptr;
      if (Tail->K != Value::Kind::List)
        return failKind("Cons tail", "a list");
      std::vector<ValuePtr> Elems;
      Elems.reserve(Tail->Elems.size() + 1);
      Elems.push_back(std::move(Head));
      for (const ValuePtr &Item : Tail->Elems)
        Elems.push_back(Item);
      return Value::list(std::move(Elems));
    }
    case OpKind::Concat: {
      ValuePtr A = eval(T->child(0), E);
      if (!A)
        return nullptr;
      ValuePtr B = eval(T->child(1), E);
      if (!B)
        return nullptr;
      if (A->K != Value::Kind::List || B->K != Value::Kind::List)
        return failKind("Concat", "two lists");
      std::vector<ValuePtr> Elems = A->Elems;
      for (const ValuePtr &Item : B->Elems)
        Elems.push_back(Item);
      return Value::list(std::move(Elems));
    }
    case OpKind::Repeat: {
      ValuePtr Elem = eval(T->child(0), E);
      if (!Elem)
        return nullptr;
      double N;
      ValuePtr Count = evalNum(T->child(1), E, N);
      if (!Count)
        return nullptr;
      if (N < 0 || N != std::floor(N) || N > 1e7)
        return fail("Repeat count must be a small non-negative integer");
      if (static_cast<uint64_t>(N) > Fuel)
        return fail("evaluation fuel exhausted (Repeat too large)");
      Fuel -= static_cast<uint64_t>(N);
      std::vector<ValuePtr> Elems(static_cast<size_t>(N), Elem);
      return Value::list(std::move(Elems));
    }

    // --- combinators ----------------------------------------------------------
    case OpKind::Fold:
      return evalFold(T, E);
    case OpKind::Map:
      return evalMap(T, E, /*WithIndex=*/false);
    case OpKind::Mapi:
      return evalMap(T, E, /*WithIndex=*/true);
    case OpKind::Fun: {
      std::vector<Symbol> Params;
      for (size_t I = 0; I + 1 < T->numChildren(); ++I) {
        if (T->child(I)->kind() != OpKind::Var)
          return failKind("Fun parameter", "a variable");
        Params.push_back(T->child(I)->op().symbol());
      }
      EnvPtr Captured;
      if (E) {
        // Copy the live chain head; chains are immutable so sharing is safe.
        // Rebuild a shared_ptr alias: environments are only created through
        // Env::bind which returns shared_ptr, so E is always owned by one.
        // We capture by walking: cheapest correct approach is to rebuild.
        std::vector<const Env *> Chain;
        for (const Env *Cur = E; Cur; Cur = Cur->Next.get())
          Chain.push_back(Cur);
        for (size_t I = Chain.size(); I > 0; --I)
          Captured = Env::bind(Captured, Chain[I - 1]->Name,
                               Chain[I - 1]->Bound);
      }
      return Value::closure(std::move(Params),
                            T->child(T->numChildren() - 1), Captured);
    }
    case OpKind::App: {
      ValuePtr Fn = eval(T->child(0), E);
      if (!Fn)
        return nullptr;
      std::vector<ValuePtr> Args;
      for (size_t I = 1; I < T->numChildren(); ++I) {
        ValuePtr A = eval(T->child(I), E);
        if (!A)
          return nullptr;
        Args.push_back(std::move(A));
      }
      return apply(*Fn, Args);
    }

    case OpKind::Vec3Ctor:
      return fail("Vec3 is only valid as an affine-transform argument");
    case OpKind::PatVar:
      return fail("pattern variable in an evaluated term");
    }
    return fail("unhandled operator in eval");
  }
};

} // namespace

EvalResult shrinkray::evalToFlatCsg(const TermPtr &Program,
                                    uint64_t FuelLimit) {
  Evaluator Ev(FuelLimit);
  EvalResult R = Ev.run(Program);
  assert((!R.Value || isFlatCsg(R.Value)) &&
         "evaluator produced a non-flat result");
  return R;
}
