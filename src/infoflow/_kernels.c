/* Compiled hot loop for 2-D linear-SDE path generation. Must stay arithmetically
 * identical to the Python kernel in infoflow.kernels (same expressions, same
 * evaluation order; the Python loop forms each noise term b * dw in numpy, one
 * rounding as here); setup.py builds it with -ffp-contract=off so that no
 * multiply-add is fused. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Acquire obj as a 1-D C-contiguous float64 buffer; -1 with an exception set if it is not. */
static int get_f64(PyObject *obj, Py_buffer *view, int flags)
{
    if (PyObject_GetBuffer(obj, view, flags | PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->ndim == 1 && view->itemsize == sizeof(double) && view->format != NULL
        && strcmp(view->format, "d") == 0)
        return 0;
    PyBuffer_Release(view);
    PyErr_SetString(PyExc_TypeError, "euler_path_2d: arrays must be 1-D float64");
    return -1;
}

static PyObject *euler_path_2d(PyObject *self, PyObject *args)
{
    PyObject *obj[4];
    Py_buffer buf[4];
    double f1, f2, a11, a12, a21, a22, b1, b2, dt, x1, x2, n1, n2;
    int held = 0;
    if (!PyArg_ParseTuple(args, "OOOOddddddddddd:euler_path_2d", &obj[0], &obj[1], &obj[2],
                          &obj[3], &f1, &f2, &a11, &a12, &a21, &a22, &b1, &b2, &dt, &x1, &x2))
        return NULL;
    while (held < 4 && get_f64(obj[held], &buf[held], held < 2 ? PyBUF_WRITABLE : 0) == 0)
        held++;
    Py_ssize_t n = held == 4 ? buf[2].shape[0] : 0;
    int ok = held == 4 && buf[3].shape[0] == n && buf[0].shape[0] == n + 1 && buf[1].shape[0] == n + 1;
    if (held == 4 && !ok)
        PyErr_SetString(PyExc_ValueError, "euler_path_2d: need len(out) == len(dw) + 1 for both");
    if (ok) {
        double *out1 = buf[0].buf, *out2 = buf[1].buf, *dw1 = buf[2].buf, *dw2 = buf[3].buf;
        out1[0] = x1;
        out2[0] = x2;
        for (Py_ssize_t i = 0; i < n; i++) {
            n1 = x1 + (f1 + a11 * x1 + a12 * x2) * dt + b1 * dw1[i];
            n2 = x2 + (f2 + a21 * x1 + a22 * x2) * dt + b2 * dw2[i];
            x1 = n1;
            x2 = n2;
            out1[i + 1] = x1;
            out2[i + 1] = x2;
        }
    }
    while (held > 0)
        PyBuffer_Release(&buf[--held]);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {{"euler_path_2d", euler_path_2d, METH_VARARGS,
                                 "Fill out1/out2 (length n+1) with the forward-Euler recursion."},
                                {NULL, NULL, 0, NULL}};
static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_kernels", NULL, -1, methods};

PyMODINIT_FUNC PyInit__kernels(void) { return PyModule_Create(&module); }
