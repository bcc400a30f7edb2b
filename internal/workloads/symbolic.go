package workloads

// Symbolic (size-parameterized) forms of the sample programs, written
// in the ${expr} placeholder syntax of internal/symbolic.  Each is the
// exact text its concrete generator produces, with the size positions
// left symbolic: substituting the bound vector reproduces the concrete
// generator's output byte for byte (pinned by a test).

// MatmulSym is Matmul with the size n left symbolic.
func MatmulSym() string {
	return `/* ${n}x${n} matrix multiplication on ${n} cells: C = A x B.
   Cell k stores B row k in local memory; C[i][j] accumulates along
   the array. */
module matmul (a in, bmat in, c out)
float a[${n}][${n}], bmat[${n}][${n}];
float c[${n}][${n}];
cellprogram (cid : 0 : ${n-1})
begin
    function matmul
    begin
        float brow[${n}];
        float bv, av, temp, yin, ans;
        int i, j, k;
        /* Distribution: keep the first row of B that arrives, pass the
           rest, and send dummies to conserve the stream. */
        for j := 0 to ${n-1} do begin
            receive (L, X, bv, bmat[0][j]);
            brow[j] := bv;
        end;
        for k := 1 to ${n-1} do
            for j := 0 to ${n-1} do begin
                receive (L, X, temp, bmat[k][j]);
                send (R, X, temp);
            end;
        for j := 0 to ${n-1} do
            send (R, X, 0.0);
        /* Compute: for each row i of A, keep own element, then
           accumulate over the columns. */
        for i := 0 to ${n-1} do begin
            receive (L, X, av, a[i][0]);
            for k := 1 to ${n-1} do begin
                receive (L, X, temp, a[i][k]);
                send (R, X, temp);
            end;
            send (R, X, 0.0);
            for j := 0 to ${n-1} do begin
                receive (L, Y, yin, 0.0);
                ans := yin + av*brow[j];
                send (R, Y, ans, c[i][j]);
            end;
        end;
    end
    call matmul;
end
`
}

// PolynomialSym is Polynomial with ncoef and npoints left symbolic.
func PolynomialSym() string {
	return `/* Polynomial evaluation (Figure 4-1): Horner's rule, one
   coefficient per cell. */
module polynomial (z in, c in, results out)
float z[${npoints}], c[${ncoef}];
float results[${npoints}];
cellprogram (cid : 0 : ${ncoef-1})
begin
    function poly
    begin
        float coeff, temp, xin, yin, ans;
        int i;
        receive (L, X, coeff, c[0]);
        for i := 1 to ${ncoef-1} do begin
            receive (L, X, temp, c[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);
        for i := 0 to ${npoints-1} do begin
            receive (L, X, xin, z[i]);
            receive (L, Y, yin, 0.0);
            send (R, X, xin);
            ans := coeff + yin*xin;
            send (R, Y, ans, results[i]);
        end;
    end
    call poly;
end
`
}

// Conv1DSym is Conv1D with the kernel size k and point count n left
// symbolic.
func Conv1DSym() string {
	return `/* 1-dimensional convolution, kernel ${k}, one kernel element per
   cell.  Partial sums flow on Y; the data stream flows on X with a
   one-element delay per cell. */
module conv1d (x in, w in, results out)
float x[${n}], w[${k}];
float results[${n-1}];
cellprogram (cid : 0 : ${k-1})
begin
    function conv
    begin
        float weight, temp, xold, xnew, yin, ans;
        int i;
        receive (L, X, weight, w[0]);
        for i := 1 to ${k-1} do begin
            receive (L, X, temp, w[i]);
            send (R, X, temp);
        end;
        send (R, X, 0.0);
        receive (L, X, xold, x[0]);
        for i := 0 to ${n-2} do begin
            receive (L, X, xnew, x[i+1]);
            receive (L, Y, yin, 0.0);
            send (R, X, xnew);
            ans := yin + weight*xold;
            send (R, Y, ans, results[i]);
            xold := xnew;
        end;
        send (R, X, xold);
    end
    call conv;
end
`
}
